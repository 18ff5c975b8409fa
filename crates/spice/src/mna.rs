//! Modified nodal analysis: residual assembly, Newton–Raphson DC solve
//! with source stepping, and DC sweeps.
//!
//! Unknown vector layout: `x = [v_1 … v_{N−1}, i_1 … i_M]` — node voltages
//! (ground excluded) followed by one branch current per voltage source.
//! Branch current sign convention: positive current flows from the `pos`
//! terminal *through the source* to `neg` (passive convention), so a
//! supply delivering power has a negative branch current.

use subvt_engine::trace;
use subvt_physics::{DeviceKind, PreparedMos};
use subvt_units::Volts;

use crate::linalg::{DenseMatrix, LuFactors};
use crate::netlist::{Element, MosInstance, Netlist};

/// Minimum conductance from every node to ground, for convergence aid.
const GMIN: f64 = 1.0e-12;
/// Maximum Newton voltage update per iteration (damping).
const MAX_DV: f64 = 0.3;
/// Newton voltage-update convergence tolerance.
const VTOL: f64 = 1.0e-10;
/// Newton residual (KCL) convergence tolerance, amps.
const ITOL: f64 = 1.0e-13;
/// Maximum Newton iterations per solve.
const MAX_NEWTON: usize = 200;
/// Pre-clamp step magnitude beyond which Newton is declared divergent
/// immediately — no damped walk can recover a 10¹² V excursion, so bail
/// to the recovery ladder instead of burning [`MAX_NEWTON`] iterations.
const DIVERGENCE_LIMIT: f64 = 1.0e12;

/// Errors from circuit analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The MNA Jacobian was singular — usually a floating node or a
    /// voltage-source loop.
    SingularMatrix {
        /// Elimination column where the failure occurred.
        column: usize,
        /// The unknown that column solves for: the netlist node name, or
        /// the voltage-source element name for branch-current columns.
        unknown: String,
    },
    /// Newton failed to converge even with source stepping.
    NoConvergence {
        /// Iterations consumed.
        iterations: usize,
        /// Final residual infinity-norm (amps).
        residual: f64,
    },
    /// A named source was not found in the netlist.
    UnknownSource(String),
    /// A netlist element carries a non-physical value (non-finite or
    /// out-of-range), detected by [`Netlist::validate`] before solving.
    InvalidNetlist {
        /// Name of the offending element.
        element: String,
        /// What was wrong with it.
        message: String,
    },
    /// A transient specification that cannot produce any time points.
    InvalidTransientSpec {
        /// Requested time step, seconds.
        dt: f64,
        /// Requested stop time, seconds.
        t_stop: f64,
    },
}

impl core::fmt::Display for SpiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpiceError::SingularMatrix { column, unknown } => {
                write!(
                    f,
                    "singular MNA matrix at column {column} \
                     (`{unknown}`: floating node or voltage-source loop?)"
                )
            }
            SpiceError::NoConvergence {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "newton failed after {iterations} iterations (residual {residual:e} A)"
                )
            }
            SpiceError::UnknownSource(name) => write!(f, "unknown source `{name}`"),
            SpiceError::InvalidNetlist { element, message } => {
                write!(f, "invalid netlist element `{element}`: {message}")
            }
            SpiceError::InvalidTransientSpec { dt, t_stop } => {
                write!(
                    f,
                    "invalid transient spec: dt = {dt:e} s, t_stop = {t_stop:e} s"
                )
            }
        }
    }
}

impl std::error::Error for SpiceError {}

/// How capacitors are treated during assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CapMode<'a> {
    /// DC: capacitors are open circuits.
    Open,
    /// Companion model: conductance `factor·C` with a history current.
    /// `v_prev` holds the previous-step node voltages and `i_prev` the
    /// previous-step capacitor currents (trapezoidal only; zeros for BE).
    Companion {
        /// Conductance multiplier (`1/h` for BE, `2/h` for trapezoidal).
        factor: f64,
        /// Node voltages at the previous accepted time point.
        v_prev: &'a [f64],
        /// Capacitor branch currents at the previous time point.
        i_prev: &'a [f64],
    },
}

/// A converged operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    /// Node voltages, indexed by [`crate::netlist::NodeId`] (entry 0 is
    /// ground and always 0).
    pub node_voltages: Vec<f64>,
    /// Branch currents of voltage sources, in netlist order.
    pub branch_currents: Vec<f64>,
    /// Newton iterations consumed.
    pub iterations: usize,
}

impl DcSolution {
    /// Voltage at a node.
    pub fn voltage(&self, node: usize) -> Volts {
        Volts::new(self.node_voltages[node])
    }
}

/// Internal solver state shared by DC and transient analyses.
pub(crate) struct Solver<'a> {
    net: &'a Netlist,
    n_nodes: usize,
    vsrc_rows: Vec<usize>,
    /// Scale factor applied to all independent sources (source stepping).
    pub(crate) source_scale: f64,
    /// Evaluation time for waveforms.
    pub(crate) time: f64,
    /// Minimum conductance to ground on every node. Defaults to [`GMIN`];
    /// raised temporarily during gmin stepping.
    pub(crate) gmin: f64,
    /// One prepared evaluator per MOSFET, in netlist order.
    mos: Vec<PreparedMos>,
    jac: DenseMatrix,
    /// Persistent LU workspace: factors are reused across Newton
    /// iterations (and, when threaded in from a sweep, across bias
    /// points) via cached-pivot refactorization.
    pub(crate) lu: LuFactors,
    /// Largest |current| stamped into any KCL row during the last
    /// [`Solver::assemble`] or [`Solver::residual`] — the unit-correct scale for the relative
    /// residual floor (branch rows are volt-valued and must not leak in).
    kcl_scale: f64,
}

impl<'a> Solver<'a> {
    pub(crate) fn new(net: &'a Netlist) -> Self {
        let n_nodes = net.node_count();
        let vsrc_rows = net.vsource_indices();
        let dim = n_nodes - 1 + vsrc_rows.len();
        Self {
            net,
            n_nodes,
            vsrc_rows,
            source_scale: 1.0,
            time: 0.0,
            gmin: GMIN,
            mos: net
                .elements()
                .iter()
                .filter_map(|e| match &e.element {
                    Element::Mosfet(inst) => Some(PreparedMos::new(&inst.model)),
                    _ => None,
                })
                .collect(),
            jac: DenseMatrix::zeros(dim),
            lu: LuFactors::new(),
            kcl_scale: 0.0,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.n_nodes - 1 + self.vsrc_rows.len()
    }

    /// Number of capacitors (for transient history state).
    pub(crate) fn cap_count(&self) -> usize {
        self.net
            .elements()
            .iter()
            .filter(|e| matches!(e.element, Element::Capacitor { .. }))
            .count()
    }

    #[inline]
    fn vix(node: usize) -> Option<usize> {
        (node > 0).then(|| node - 1)
    }

    /// Node voltage from the unknown vector (ground = 0).
    #[inline]
    fn v(x: &[f64], node: usize) -> f64 {
        if node == 0 {
            0.0
        } else {
            x[node - 1]
        }
    }

    /// Maps node voltages into a MOSFET's magnitude frame:
    /// `(v_gs, v_ds, sign)`, where `sign` turns the model's current back
    /// into the current into the drain terminal.
    #[inline]
    fn mos_frame(kind: DeviceKind, vd: f64, vg: f64, vs: f64) -> (Volts, Volts, f64) {
        let (vgs, vds, sign) = match kind {
            DeviceKind::Nfet => (vg - vs, vd - vs, 1.0),
            DeviceKind::Pfet => (vs - vg, vs - vd, -1.0),
        };
        (Volts::new(vgs), Volts::new(vds), sign)
    }

    /// MOSFET drain current (into the drain terminal) and its partial
    /// derivatives `(i_d, ∂i_d/∂v_d, ∂i_d/∂v_g)` in the node frame, amps
    /// and siemens. `∂i_d/∂v_s = −(∂i_d/∂v_d + ∂i_d/∂v_g)` by charge
    /// conservation, so it is not returned separately.
    ///
    /// The current value goes through
    /// [`PreparedMos::drain_current_and_derivs`], whose value path is
    /// bit-identical to [`PreparedMos::drain_current`] (what
    /// [`Solver::mos_current`] uses). For both polarities the node-frame
    /// chain rule collapses to the same mapping:
    /// `∂i_d/∂v_d = W·∂I/∂v_ds` and `∂i_d/∂v_g = W·∂I/∂v_gs` (the PFET's
    /// leading `−1` cancels against its reversed magnitude frame).
    fn mos_current_and_derivs(
        inst: &MosInstance,
        prepared: &PreparedMos,
        vd: f64,
        vg: f64,
        vs: f64,
    ) -> (f64, f64, f64) {
        let (vgs, vds, sign) = Self::mos_frame(inst.model.kind, vd, vg, vs);
        let (i, di_dvgs, di_dvds) = prepared.drain_current_and_derivs(vgs, vds);
        let w = inst.width_um;
        (sign * w * i.get(), w * di_dvds, w * di_dvgs)
    }

    /// MOSFET drain current (into the drain terminal) alone, amps — the
    /// value [`Solver::mos_current_and_derivs`] returns, bit for bit.
    fn mos_current(inst: &MosInstance, prepared: &PreparedMos, vd: f64, vg: f64, vs: f64) -> f64 {
        let (vgs, vds, sign) = Self::mos_frame(inst.model.kind, vd, vg, vs);
        sign * inst.width_um * prepared.drain_current(vgs, vds).get()
    }

    /// Assembles the Newton residual `f` and Jacobian at state `x`.
    /// Returns the residual; the Jacobian is left in `self.jac` and the
    /// largest KCL current contribution in `self.kcl_scale`.
    pub(crate) fn assemble(&mut self, x: &[f64], caps: CapMode<'_>) -> Vec<f64> {
        self.stamp::<true>(x, caps)
    }

    /// The residual [`Solver::assemble`] returns and the same
    /// `self.kcl_scale`, without the Jacobian: MOSFETs are evaluated
    /// value-only and `self.jac` is left untouched. Used where Newton only
    /// needs the residual norm.
    pub(crate) fn residual(&mut self, x: &[f64], caps: CapMode<'_>) -> Vec<f64> {
        self.stamp::<false>(x, caps)
    }

    /// Stamps every element's residual, and with `JACOBIAN` its
    /// conductances into `self.jac`.
    fn stamp<const JACOBIAN: bool>(&mut self, x: &[f64], caps: CapMode<'_>) -> Vec<f64> {
        let dim = self.dim();
        let mut f = vec![0.0; dim];
        if JACOBIAN {
            self.jac.clear();
        }
        let jac = &mut self.jac;
        // Unit-correct scale for the relative residual floor: the largest
        // |current| any element pushes into a KCL row. Branch (KVL) rows
        // are volt-valued and deliberately excluded.
        let mut scale = 0.0f64;

        // g_min to ground on every node.
        let gmin = self.gmin;
        for n in 1..self.n_nodes {
            let i = n - 1;
            f[i] += gmin * x[i];
            if JACOBIAN {
                jac.add(i, i, gmin);
            }
            scale = scale.max((gmin * x[i]).abs());
        }

        let mut branch = 0usize;
        let mut cap_idx = 0usize;
        let mut mos = self.mos.iter();
        for named in self.net.elements() {
            match &named.element {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let i = g * (Self::v(x, *a) - Self::v(x, *b));
                    scale = scale.max(i.abs());
                    if let Some(ia) = Self::vix(*a) {
                        f[ia] += i;
                    }
                    if let Some(ib) = Self::vix(*b) {
                        f[ib] -= i;
                    }
                    if JACOBIAN {
                        Self::stamp_conductance(jac, *a, *b, g);
                    }
                }
                Element::Capacitor { a, b, farads } => {
                    if let CapMode::Companion {
                        factor,
                        v_prev,
                        i_prev,
                    } = caps
                    {
                        let g = factor * farads;
                        let v_now = Self::v(x, *a) - Self::v(x, *b);
                        let vp = {
                            let va = if *a == 0 { 0.0 } else { v_prev[*a - 1] };
                            let vb = if *b == 0 { 0.0 } else { v_prev[*b - 1] };
                            va - vb
                        };
                        // BE: i = (C/h)(v − v_prev); trapezoidal adds the
                        // previous current: i = (2C/h)(v − v_prev) − i_prev.
                        let i = g * (v_now - vp) - i_prev[cap_idx];
                        scale = scale.max(i.abs());
                        if let Some(ia) = Self::vix(*a) {
                            f[ia] += i;
                        }
                        if let Some(ib) = Self::vix(*b) {
                            f[ib] -= i;
                        }
                        if JACOBIAN {
                            Self::stamp_conductance(jac, *a, *b, g);
                        }
                    }
                    cap_idx += 1;
                }
                Element::VSource { pos, neg, waveform } => {
                    let row = self.n_nodes - 1 + branch;
                    let value = self.source_scale * waveform.value_at(self.time);
                    let i_br = x[row];
                    scale = scale.max(i_br.abs());
                    if let Some(ip) = Self::vix(*pos) {
                        f[ip] += i_br;
                        if JACOBIAN {
                            jac.add(ip, row, 1.0);
                            jac.add(row, ip, 1.0);
                        }
                    }
                    if let Some(in_) = Self::vix(*neg) {
                        f[in_] -= i_br;
                        if JACOBIAN {
                            jac.add(in_, row, -1.0);
                            jac.add(row, in_, -1.0);
                        }
                    }
                    f[row] = Self::v(x, *pos) - Self::v(x, *neg) - value;
                    branch += 1;
                }
                Element::ISource { pos, neg, waveform } => {
                    let value = self.source_scale * waveform.value_at(self.time);
                    scale = scale.max(value.abs());
                    // Current flows pos → neg through the source.
                    if let Some(ip) = Self::vix(*pos) {
                        f[ip] += value;
                    }
                    if let Some(in_) = Self::vix(*neg) {
                        f[in_] -= value;
                    }
                }
                Element::Mosfet(inst) => {
                    let prepared = mos.next().expect("one prepared model per MOSFET");
                    let (vd, vg, vs) = (
                        Self::v(x, inst.drain),
                        Self::v(x, inst.gate),
                        Self::v(x, inst.source),
                    );
                    // Analytic derivatives: one model evaluation per
                    // device instead of the four a forward difference
                    // needed, and exact conductances for Newton.
                    let (id, g_d, g_g) = if JACOBIAN {
                        Self::mos_current_and_derivs(inst, prepared, vd, vg, vs)
                    } else {
                        (Self::mos_current(inst, prepared, vd, vg, vs), 0.0, 0.0)
                    };
                    scale = scale.max(id.abs());
                    // Current into drain leaves the drain node; the same
                    // current enters the source node.
                    if let Some(idr) = Self::vix(inst.drain) {
                        f[idr] += id;
                    }
                    if let Some(isr) = Self::vix(inst.source) {
                        f[isr] -= id;
                    }
                    if JACOBIAN {
                        Self::stamp_mosfet(jac, inst, g_d, g_g);
                    }
                }
            }
        }
        self.kcl_scale = scale;
        f
    }

    /// Stamps a MOSFET's node-frame conductances `g_d = ∂i_d/∂v_d` and
    /// `g_g = ∂i_d/∂v_g` (with `g_s = −(g_d + g_g)`) into the drain row
    /// and, negated, the source row.
    fn stamp_mosfet(jac: &mut DenseMatrix, inst: &MosInstance, g_d: f64, g_g: f64) {
        let g_s = -(g_d + g_g);
        for (row, sign) in [(inst.drain, 1.0), (inst.source, -1.0)] {
            let Some(r) = Self::vix(row) else { continue };
            for (col, g) in [(inst.drain, g_d), (inst.gate, g_g), (inst.source, g_s)] {
                if let Some(c) = Self::vix(col) {
                    jac.add(r, c, sign * g);
                }
            }
        }
    }

    /// Stamps a two-terminal conductance `g` between nodes `a` and `b`.
    fn stamp_conductance(jac: &mut DenseMatrix, a: usize, b: usize, g: f64) {
        if let Some(ia) = Self::vix(a) {
            jac.add(ia, ia, g);
            if let Some(ib) = Self::vix(b) {
                jac.add(ia, ib, -g);
            }
        }
        if let Some(ib) = Self::vix(b) {
            jac.add(ib, ib, g);
            if let Some(ia) = Self::vix(a) {
                jac.add(ib, ia, -g);
            }
        }
    }

    /// The KCL residual acceptance floor: [`ITOL`] or a 1 ppb fraction of
    /// the largest current flowing anywhere in the circuit, whichever is
    /// larger. Computed from KCL current contributions only — the old
    /// formula scaled off the full residual vector, letting volt-valued
    /// branch (KVL) rows inflate an amp-valued tolerance.
    pub(crate) fn residual_floor(&self) -> f64 {
        ITOL.max(1e-9 * self.kcl_scale)
    }

    /// Maps a singular elimination column to [`SpiceError::SingularMatrix`]
    /// naming the unknown (node name, or voltage-source element name for
    /// branch columns).
    fn singular_error(&self, column: usize) -> SpiceError {
        let n_v = self.n_nodes - 1;
        let unknown = if column < n_v {
            let node = column + 1;
            self.net
                .node_name(node)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("node #{node}"))
        } else {
            let branch = column - n_v;
            self.vsrc_rows
                .get(branch)
                .map(|&i| format!("branch of {}", self.net.elements()[i].name))
                .unwrap_or_else(|| format!("branch #{branch}"))
        };
        SpiceError::SingularMatrix { column, unknown }
    }

    /// Runs Newton from `x0`, returning the converged unknown vector.
    ///
    /// The Jacobian is assembled in place into the persistent workspace
    /// (no per-iteration clone), and the LU factors are reused through
    /// cached-pivot refactorization whenever the pivot order stays
    /// stable — only the first iteration (or a pivot-order change) pays
    /// for a full pivot search. The call adds its successful
    /// factorizations to `spice.lu.factor` / `spice.lu.resolve` once, on
    /// every exit path.
    pub(crate) fn newton(
        &mut self,
        x: Vec<f64>,
        caps: CapMode<'_>,
    ) -> Result<(Vec<f64>, usize), SpiceError> {
        let mut lu = LuCounts::default();
        let result = self.newton_counted(x, caps, &mut lu);
        lu.emit();
        result
    }

    /// [`Solver::newton`], tallying factorizations into `lu`.
    fn newton_counted(
        &mut self,
        mut x: Vec<f64>,
        caps: CapMode<'_>,
        lu: &mut LuCounts,
    ) -> Result<(Vec<f64>, usize), SpiceError> {
        let n_v = self.n_nodes - 1;
        for iter in 1..=MAX_NEWTON {
            let mut rhs = self.assemble(&x, caps);
            let f_norm = max_abs(&rhs);
            rhs.iter_mut().for_each(|v| *v = -*v);
            if self.lu.refactor_cached(&self.jac).is_ok() {
                lu.resolve += 1;
            } else {
                self.lu
                    .factor(&self.jac)
                    .map_err(|e| self.singular_error(e.column))?;
                lu.factor += 1;
            }
            let dx = self.lu.solve(&mut rhs);

            // Damped update: clamp voltage steps, tracking the *pre-clamp*
            // norms — a step pinned at the clamp used to masquerade as
            // progress, and branch-current blow-ups were invisible.
            let mut max_dv_raw: f64 = 0.0;
            let mut max_di: f64 = 0.0;
            for (i, d) in dx.iter().enumerate() {
                let step = if i < n_v {
                    d.clamp(-MAX_DV, MAX_DV)
                } else {
                    *d
                };
                x[i] += step;
                if i < n_v {
                    max_dv_raw = max_dv_raw.max(d.abs());
                } else {
                    max_di = max_di.max(d.abs());
                }
            }

            // Divergence guard over the full (voltage + branch) step: a
            // non-finite or astronomically large raw step cannot be walked
            // back by damping — hand control to the recovery ladder now.
            if !(max_dv_raw.is_finite() && max_di.is_finite())
                || max_dv_raw > DIVERGENCE_LIMIT
                || max_di > DIVERGENCE_LIMIT
            {
                return Err(SpiceError::NoConvergence {
                    iterations: iter,
                    residual: f_norm,
                });
            }

            // Branch currents converge when their step is small relative
            // to the currents actually flowing (amps scale, same floor
            // construction as the KCL residual check).
            let branch_scale = x[n_v..].iter().fold(0.0f64, |acc, b| acc.max(b.abs()));
            if max_dv_raw < VTOL && max_di <= ITOL.max(1e-9 * branch_scale) {
                // Verify the KCL residual at the accepted point; the
                // Jacobian there would go unused.
                let f = self.residual(&x, caps);
                let res = f.iter().take(n_v).fold(0.0f64, |acc, v| acc.max(v.abs()));
                if res < self.residual_floor() {
                    return Ok((x, iter));
                }
            }
        }
        let f = self.residual(&x, caps);
        Err(SpiceError::NoConvergence {
            iterations: MAX_NEWTON,
            residual: max_abs(&f),
        })
    }

    /// Splits a converged unknown vector into a [`DcSolution`].
    pub(crate) fn to_solution(&self, x: &[f64], iterations: usize) -> DcSolution {
        let n_v = self.n_nodes - 1;
        let mut node_voltages = Vec::with_capacity(self.n_nodes);
        node_voltages.push(0.0);
        node_voltages.extend_from_slice(&x[..n_v]);
        DcSolution {
            node_voltages,
            branch_currents: x[n_v..].to_vec(),
            iterations,
        }
    }
}

/// LU factorizations of one [`Solver::newton`] call: full pivot searches
/// and cached-pivot refactorizations that succeeded.
#[derive(Debug, Default)]
struct LuCounts {
    factor: u64,
    resolve: u64,
}

impl LuCounts {
    /// Adds the tallies to the `spice.lu.*` counters (a zero tally adds
    /// nothing, so a counter appears only once something was counted).
    fn emit(&self) {
        for (name, n) in [
            ("spice.lu.factor", self.factor),
            ("spice.lu.resolve", self.resolve),
        ] {
            if n > 0 {
                trace::add(name, n);
            }
        }
    }
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |acc, x| acc.max(x.abs()))
}

/// Recovery-ladder site name for DC operating-point solves.
const DC_SITE: &str = "spice.dc";
/// Gmin-stepping ladder: raised minimum conductances solved with
/// continuation, ending back at the nominal [`GMIN`].
const GMIN_LADDER: [f64; 5] = [1.0e-3, 1.0e-5, 1.0e-7, 1.0e-9, GMIN];

/// Solves the DC operating point (capacitors open, waveforms at `t = 0`).
///
/// Non-convergence escalates through a deterministic recovery ladder —
/// retry, source stepping (sources ramped 10 % → 100 %), then gmin
/// stepping (minimum conductance relaxed and walked back down to
/// [`GMIN`] with continuation). Each rung is recorded via
/// [`subvt_engine::recovery`] under the `spice.dc` site. Each call
/// counts one `spice.dc.solves`, whichever rungs it climbs, and a
/// returned solution observes its `spice.newton.iterations`.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidNetlist`] for non-physical element
/// values, or the first solver error if every recovery rung fails.
pub fn dc_operating_point(net: &Netlist) -> Result<DcSolution, SpiceError> {
    operating_point_with_recovery(net).inspect(observe_newton)
}

/// Records the Newton effort behind one returned DC solution.
fn observe_newton(sol: &DcSolution) {
    trace::observe("spice.newton.iterations", sol.iterations as f64);
}

/// The cold solve plus recovery ladder behind [`dc_operating_point`].
fn operating_point_with_recovery(net: &Netlist) -> Result<DcSolution, SpiceError> {
    use subvt_engine::{faultinject, recovery, recovery::RecoveryStep};

    net.validate()?;
    trace::add("spice.dc.solves", 1);
    let mut solver = Solver::new(net);
    let x0 = vec![0.0; solver.dim()];

    // Fault injection fires before any solver state exists, so the plain
    // Retry rung reproduces the fault-free result bit-for-bit.
    let first = if faultinject::should_inject(faultinject::FaultSite::SolverDiverge) {
        Err(SpiceError::NoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
        })
    } else {
        solver
            .newton(x0.clone(), CapMode::Open)
            .map(|(x, iters)| solver.to_solution(&x, iters))
    };
    let first_err = match first {
        Ok(sol) => return Ok(sol),
        Err(e) => e,
    };

    // Rung 1: plain retry from the same initial guess.
    match solver.newton(x0.clone(), CapMode::Open) {
        Ok((x, iters)) => {
            recovery::record(DC_SITE, RecoveryStep::Retry, format!("{first_err}"), true);
            return Ok(solver.to_solution(&x, iters));
        }
        Err(e) => {
            recovery::record(DC_SITE, RecoveryStep::Retry, format!("{e}"), false);
        }
    }

    // Rung 2: source stepping — ramp all sources from 10 % to 100 %.
    match source_stepping(&mut solver, &x0) {
        Ok(sol) => {
            recovery::record(
                DC_SITE,
                RecoveryStep::SourceStepping,
                format!("{first_err}"),
                true,
            );
            return Ok(sol);
        }
        Err(e) => {
            recovery::record(DC_SITE, RecoveryStep::SourceStepping, format!("{e}"), false);
        }
    }

    // Rung 3: gmin stepping — relax the minimum conductance and walk it
    // back down to nominal with continuation.
    match gmin_stepping(&mut solver, &x0) {
        Ok(sol) => {
            recovery::record(
                DC_SITE,
                RecoveryStep::GminStepping,
                format!("{first_err}"),
                true,
            );
            Ok(sol)
        }
        Err(e) => {
            recovery::record(DC_SITE, RecoveryStep::GminStepping, format!("{e}"), false);
            Err(first_err)
        }
    }
}

/// Source-stepping rung: sources ramped 10 % → 100 % with continuation.
fn source_stepping(solver: &mut Solver<'_>, x0: &[f64]) -> Result<DcSolution, SpiceError> {
    let mut x = x0.to_vec();
    let mut total_iters = 0;
    let result = (|| {
        for step in 1..=10 {
            solver.source_scale = step as f64 / 10.0;
            let (xs, it) = solver.newton(x.clone(), CapMode::Open)?;
            x = xs;
            total_iters += it;
        }
        Ok(solver.to_solution(&x, total_iters))
    })();
    solver.source_scale = 1.0;
    result
}

/// Gmin-stepping rung: solve with a large minimum conductance, then use
/// each solution as the starting point for the next, smaller one.
fn gmin_stepping(solver: &mut Solver<'_>, x0: &[f64]) -> Result<DcSolution, SpiceError> {
    let mut x = x0.to_vec();
    let mut total_iters = 0;
    let result = (|| {
        for gmin in GMIN_LADDER {
            solver.gmin = gmin;
            let (xs, it) = solver.newton(x.clone(), CapMode::Open)?;
            x = xs;
            total_iters += it;
        }
        Ok(solver.to_solution(&x, total_iters))
    })();
    solver.gmin = GMIN;
    result
}

/// Whether `SUBVT_SPICE_COLD_START` forces every solve to start from
/// zeros plus the recovery ladder, disabling warm starts and sweep
/// continuation. Used by CI to verify warm-started results are identical
/// to cold-started ones; read once per process.
pub fn cold_start_forced() -> bool {
    use std::sync::OnceLock;
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("SUBVT_SPICE_COLD_START")
            .map(|v| v != "0" && !v.is_empty())
            .unwrap_or(false)
    })
}

/// Solves a DC operating point starting from a previous solution
/// (continuation) — used by sweeps, Monte-Carlo samples, and the
/// transient initial condition.
///
/// Counts as one DC solve (`spice.dc.solves`) and one warm start
/// (`spice.newton.warm_start`), and a returned solution observes its
/// `spice.newton.iterations`; when
/// [`cold_start_forced`] is set the initial guess is ignored and the
/// solve routes through the cold [`dc_operating_point`] path instead.
pub fn dc_operating_point_from(
    net: &Netlist,
    initial: &DcSolution,
) -> Result<DcSolution, SpiceError> {
    if cold_start_forced() {
        return dc_operating_point(net);
    }
    let mut lu = LuFactors::new();
    dc_operating_point_from_with(net, initial, &mut lu)
}

/// [`dc_operating_point_from`] with a caller-owned LU workspace, so
/// consecutive solves over structurally identical matrices (sweep points,
/// Monte-Carlo samples) can reuse the cached pivot order across calls.
/// The workspace is returned to the caller even when the solve fails.
pub(crate) fn dc_operating_point_from_with(
    net: &Netlist,
    initial: &DcSolution,
    lu: &mut LuFactors,
) -> Result<DcSolution, SpiceError> {
    let mut solver = Solver::new(net);
    solver.lu = core::mem::take(lu);
    let n_v = net.node_count() - 1;
    let mut x0 = vec![0.0; solver.dim()];
    x0[..n_v].copy_from_slice(&initial.node_voltages[1..]);
    for (i, &b) in initial.branch_currents.iter().enumerate() {
        if n_v + i < x0.len() {
            x0[n_v + i] = b;
        }
    }
    trace::add("spice.dc.solves", 1);
    trace::add("spice.newton.warm_start", 1);
    let result = solver.newton(x0, CapMode::Open);
    *lu = core::mem::take(&mut solver.lu);
    let (x, iters) = result?;
    let sol = solver.to_solution(&x, iters);
    observe_newton(&sol);
    Ok(sol)
}

/// Sweeps the DC value of the named voltage source over `values`,
/// re-solving with continuation from the previous point (and reusing the
/// LU pivot order across points — the matrices share structure).
///
/// # Errors
///
/// Returns [`SpiceError::UnknownSource`] if no voltage source has the
/// given name, or any solver error.
pub fn dc_sweep(
    net: &Netlist,
    source_name: &str,
    values: &[f64],
) -> Result<Vec<DcSolution>, SpiceError> {
    let mut work = net.clone();
    let idx = work
        .elements()
        .iter()
        .position(|e| e.name == source_name && matches!(e.element, Element::VSource { .. }))
        .ok_or_else(|| SpiceError::UnknownSource(source_name.to_owned()))?;

    let mut results = Vec::with_capacity(values.len());
    let mut prev: Option<DcSolution> = None;
    let mut lu = LuFactors::new();
    for &value in values {
        set_vsource_dc(&mut work, idx, value);
        let sol = match &prev {
            Some(p) if !cold_start_forced() => dc_operating_point_from_with(&work, p, &mut lu)
                .or_else(|_| dc_operating_point(&work))?,
            _ => dc_operating_point(&work)?,
        };
        prev = Some(sol.clone());
        results.push(sol);
    }
    Ok(results)
}

pub(crate) fn set_vsource_dc(net: &mut Netlist, element_index: usize, value: f64) {
    if let Element::VSource { waveform, .. } = &mut net.elements_mut()[element_index].element {
        *waveform = crate::netlist::Waveform::Dc(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    #[test]
    fn voltage_divider() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(3.0));
        net.resistor("R1", a, b, 1_000.0);
        net.resistor("R2", b, Netlist::GROUND, 2_000.0);
        let sol = dc_operating_point(&net).unwrap();
        assert!((sol.node_voltages[a] - 3.0).abs() < 1e-9);
        assert!((sol.node_voltages[b] - 2.0).abs() < 1e-6);
        // Branch current: 3 V across 3 kΩ = 1 mA flowing through the
        // source from + to − is negative (delivering power).
        assert!((sol.branch_currents[0] + 1.0e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut net = Netlist::new();
        let a = net.node("a");
        // 1 mA flowing ground → a through the source injects into `a`.
        net.isource("I1", Netlist::GROUND, a, Waveform::Dc(1.0e-3));
        net.resistor("R1", a, Netlist::GROUND, 1_000.0);
        let sol = dc_operating_point(&net).unwrap();
        assert!((sol.node_voltages[a] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floating_node_is_singular_or_grounded_by_gmin() {
        // A node connected only through a capacitor is held by g_min.
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0));
        net.capacitor("C1", a, b, 1.0e-15);
        let sol = dc_operating_point(&net).unwrap();
        assert!(sol.node_voltages[b].abs() < 1e-6);
    }

    #[test]
    fn two_sources_kirchhoff_loop() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(5.0));
        net.vsource("V2", b, Netlist::GROUND, Waveform::Dc(2.0));
        net.resistor("R", a, b, 1_000.0);
        let sol = dc_operating_point(&net).unwrap();
        // 3 V across 1 kΩ → 3 mA from a to b.
        assert!((sol.branch_currents[0] + 3.0e-3).abs() < 1e-8);
        assert!((sol.branch_currents[1] - 3.0e-3).abs() < 1e-8);
    }

    #[test]
    fn dc_sweep_tracks_source() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource("Vin", a, Netlist::GROUND, Waveform::Dc(0.0));
        net.resistor("R1", a, b, 1_000.0);
        net.resistor("R2", b, Netlist::GROUND, 1_000.0);
        let sols = dc_sweep(&net, "Vin", &[0.0, 1.0, 2.0]).unwrap();
        let got: Vec<f64> = sols.iter().map(|s| s.node_voltages[b]).collect();
        assert!((got[0] - 0.0).abs() < 1e-9);
        assert!((got[1] - 0.5).abs() < 1e-6);
        assert!((got[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn injected_divergence_recovers_bit_identically() {
        use subvt_engine::faultinject::{self, FaultPlan};

        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.2));
        net.resistor("R1", a, b, 10_000.0);
        net.resistor("R2", b, Netlist::GROUND, 5_000.0);

        faultinject::configure(None);
        let clean = dc_operating_point(&net).unwrap();

        let mut plan = FaultPlan::quiet(77);
        plan.p_diverge = 1.0;
        faultinject::configure(Some(plan));
        let recovered = dc_operating_point(&net);
        faultinject::configure(None);

        let recovered = recovered.unwrap();
        // The Retry rung re-runs the identical Newton solve, so recovered
        // results are bit-for-bit equal to the fault-free run.
        for (c, r) in clean.node_voltages.iter().zip(&recovered.node_voltages) {
            assert_eq!(c.to_bits(), r.to_bits());
        }
        for (c, r) in clean.branch_currents.iter().zip(&recovered.branch_currents) {
            assert_eq!(c.to_bits(), r.to_bits());
        }
        let recs = subvt_engine::recovery::snapshot();
        assert!(recs.iter().any(|r| r.site == "spice.dc" && r.recovered));
    }

    #[test]
    fn residual_floor_ignores_branch_voltage_rows() {
        // Regression for the unit-mixing bug: the relative floor used to
        // scale off max|f| over the FULL residual vector, so a megavolt
        // branch (KVL) row turned the amp-valued tolerance into 1e-3 A —
        // wide enough to accept a microamp circuit at garbage points.
        let mut net = Netlist::new();
        let a = net.node("hv");
        net.vsource("VHV", a, Netlist::GROUND, Waveform::Dc(1.0e6));
        net.resistor("RHV", a, Netlist::GROUND, 1.0e12); // ~1 µA flows
        let mut solver = Solver::new(&net);
        let x0 = vec![0.0; solver.dim()];
        let f = solver.assemble(&x0, CapMode::Open);
        // At x = 0 the branch row carries the full −1e6 V source value…
        assert!(max_abs(&f) >= 1.0e6);
        let old_floor = ITOL.max(1e-9 * max_abs(&f));
        assert!(old_floor >= 1.0e-3, "old formula floor = {old_floor:e}");
        // …but the KCL-scaled floor stays at the amp-valued tolerance.
        assert!(
            solver.residual_floor() <= 1.0e-12,
            "floor = {:e}",
            solver.residual_floor()
        );

        // End-to-end on a solvable deck: the accepted point must satisfy
        // KCL at the strict amp-scaled floor, far below what the inflated
        // formula would have demanded for the same source voltage.
        let mut lo = Netlist::new();
        let n = lo.node("mid");
        lo.vsource("V1", n, Netlist::GROUND, Waveform::Dc(3.0));
        lo.resistor("R1", n, Netlist::GROUND, 1.0e6); // 3 µA flows
        let sol = dc_operating_point(&lo).unwrap();
        let v = sol.node_voltages[n];
        let kcl = (v / 1.0e6 + GMIN * v + sol.branch_currents[0]).abs();
        assert!(kcl < 1.0e-12, "KCL imbalance {kcl:e}");
        assert!((v - 3.0).abs() < 1e-9);
    }

    #[test]
    fn singular_matrix_names_the_offending_node() {
        // Two voltage sources in a loop across the same node pair make
        // the branch equations linearly dependent.
        let mut net = Netlist::new();
        let a = net.node("looped");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0));
        net.vsource("V2", a, Netlist::GROUND, Waveform::Dc(2.0));
        let mut solver = Solver::new(&net);
        let err = solver.newton(vec![0.0; solver.dim()], CapMode::Open);
        match err {
            Err(SpiceError::SingularMatrix { unknown, .. }) => {
                assert!(
                    unknown.contains("looped") || unknown.contains("V2") || unknown.contains("V1"),
                    "unknown = {unknown}"
                );
                let msg = format!(
                    "{}",
                    SpiceError::SingularMatrix {
                        column: 1,
                        unknown: unknown.clone()
                    }
                );
                assert!(msg.contains(&unknown), "message = {msg}");
            }
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }

    #[test]
    fn divergence_guard_trips_on_nonfinite_step() {
        // An f64::MAX current source into a 1 kΩ resistor demands a node
        // step of ~1.8e311 V, which overflows to infinity; the guard must
        // bail on iteration 1 instead of spinning MAX_NEWTON times with
        // non-finite garbage accumulating in x.
        let mut net = Netlist::new();
        let a = net.node("a");
        net.isource("I1", Netlist::GROUND, a, Waveform::Dc(f64::MAX));
        net.resistor("R1", a, Netlist::GROUND, 1_000.0);
        let mut solver = Solver::new(&net);
        match solver.newton(vec![0.0; solver.dim()], CapMode::Open) {
            Err(SpiceError::NoConvergence { iterations, .. }) => {
                assert_eq!(iterations, 1, "guard should fire on the first step");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn divergence_guard_trips_on_huge_branch_step() {
        // A petavolt source demands a ~1e15 V node step; the damped walk
        // (0.3 V/iter) can never get there, and the branch current blows
        // up symmetrically. Previously Newton burned all 200 iterations;
        // the pre-clamp guard now fails fast on iteration 1.
        let mut net = Netlist::new();
        let a = net.node("a");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0e15));
        net.resistor("R1", a, Netlist::GROUND, 1.0);
        let mut solver = Solver::new(&net);
        match solver.newton(vec![0.0; solver.dim()], CapMode::Open) {
            Err(SpiceError::NoConvergence { iterations, .. }) => {
                assert_eq!(iterations, 1);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    /// An NFET whose gate is walked toward `v_gate` by the 0.3 V Newton
    /// step clamp, with its drain held only by the device (and g_min).
    fn gate_walk(v_gate: f64) -> Netlist {
        let mut net = Netlist::new();
        let d = net.node("d");
        let g = net.node("g");
        net.vsource("VG", g, Netlist::GROUND, Waveform::Dc(v_gate));
        let nfet = subvt_physics::DeviceParams::reference_90nm_nfet();
        net.mosfet("MN", nfet.mos_model(), 1.0, d, g, Netlist::GROUND);
        net
    }

    #[test]
    fn newton_tallies_each_factorization_on_every_exit() {
        let counted = |solver: &mut Solver<'_>| {
            let mut lu = LuCounts::default();
            let x0 = vec![0.0; solver.dim()];
            let result = solver.newton_counted(x0, CapMode::Open, &mut lu);
            (result, lu.factor + lu.resolve)
        };

        // Converged: one factorization per iteration.
        let mut net = gate_walk(0.2);
        let mut solver = Solver::new(&net);
        let (result, n) = counted(&mut solver);
        let (_, iterations) = result.expect("converges");
        assert_eq!(n, iterations as u64);

        // Out of iterations: the gate is still 940 V short after 200
        // clamped steps.
        net = gate_walk(-1000.0);
        let mut solver = Solver::new(&net);
        match counted(&mut solver) {
            (Err(SpiceError::NoConvergence { iterations, .. }), n) => {
                assert_eq!(iterations, MAX_NEWTON);
                assert_eq!(n, MAX_NEWTON as u64);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }

        // Singular part-way: without g_min the drain row holds only the
        // device's g_d, which the falling gate pinches below the pivot
        // floor. Every iteration before that one factors; the failed
        // attempt is not counted.
        net = gate_walk(-30.0);
        let mut solver = Solver::new(&net);
        solver.gmin = 0.0;
        let Element::Mosfet(inst) = &net.elements()[1].element else {
            unreachable!()
        };
        let mut factorable = 0u64;
        let mut v_gate: f64 = 0.0;
        loop {
            let (_, g_d, _) =
                Solver::mos_current_and_derivs(inst, &solver.mos[0], 0.0, v_gate, 0.0);
            if g_d.abs() < 1e-300 {
                break;
            }
            factorable += 1;
            v_gate += (-30.0 - v_gate).clamp(-MAX_DV, MAX_DV);
        }
        assert!(factorable > 1 && factorable < MAX_NEWTON as u64);
        match counted(&mut solver) {
            (Err(SpiceError::SingularMatrix { unknown, .. }), n) => {
                assert_eq!(unknown, "d");
                assert_eq!(n, factorable);
            }
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }

    #[test]
    fn residual_matches_the_assembled_residual_bit_for_bit() {
        use subvt_physics::{DeviceKind, DeviceParams};
        let nfet = DeviceParams::reference_90nm_nfet();
        let pfet = DeviceParams {
            kind: DeviceKind::Pfet,
            ..nfet
        };
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let vin = net.node("in");
        let vout = net.node("out");
        net.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(0.3));
        net.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(0.1));
        net.mosfet("MP", pfet.mos_model(), 2.0, vout, vin, vdd);
        net.mosfet("MN", nfet.mos_model(), 1.0, vout, vin, Netlist::GROUND);
        net.capacitor("CL", vout, Netlist::GROUND, 1.0e-15);
        let mut solver = Solver::new(&net);
        let mut rng = subvt_engine::rng::SplitMix64::new(0x7e5d);
        let v_prev = [0.3, 0.1, 0.2];
        let i_prev = [1.0e-9];
        for _ in 0..256 {
            let x: Vec<f64> = (0..solver.dim())
                .map(|_| -0.5 + 1.5 * rng.next_f64())
                .collect();
            let caps = CapMode::Companion {
                factor: 2.0e12,
                v_prev: &v_prev,
                i_prev: &i_prev,
            };
            let full = solver.assemble(&x, caps);
            let full_scale = solver.kcl_scale;
            let only = solver.residual(&x, caps);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&only), bits(&full), "x = {x:?}");
            assert_eq!(solver.kcl_scale.to_bits(), full_scale.to_bits());
        }
    }

    #[test]
    fn warm_start_matches_cold_start_closely() {
        // Warm-starting from the converged solution itself must terminate
        // immediately at a point equal to the cold solve within the
        // solver tolerance (formatted outputs are compared bit-for-bit by
        // the CI cmp gate; raw iterates agree to ~1e-9 relative).
        use subvt_physics::{DeviceKind, DeviceParams};
        let nfet = DeviceParams::reference_90nm_nfet();
        let pfet = DeviceParams {
            kind: DeviceKind::Pfet,
            ..nfet
        };
        let nmod = nfet.mos_model();
        let pmod = pfet.mos_model();

        for vdd_mv in [200.0_f64, 250.0, 300.0, 400.0, 1200.0] {
            let vdd_v = vdd_mv / 1000.0;
            let mut net = Netlist::new();
            let vdd = net.node("vdd");
            let vin = net.node("in");
            let vout = net.node("out");
            net.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(vdd_v));
            net.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(vdd_v * 0.5));
            net.mosfet("MP", pmod, 2.0, vout, vin, vdd);
            net.mosfet("MN", nmod, 1.0, vout, vin, Netlist::GROUND);

            let cold = dc_operating_point(&net).unwrap();
            let warm = dc_operating_point_from(&net, &cold).unwrap();
            for (c, w) in cold.node_voltages.iter().zip(&warm.node_voltages) {
                let scale = c.abs().max(1e-6);
                assert!(
                    (c - w).abs() / scale < 1e-9,
                    "vdd={vdd_mv} mV: cold {c} vs warm {w}"
                );
            }
            for (c, w) in cold.branch_currents.iter().zip(&warm.branch_currents) {
                let scale = c.abs().max(1e-15);
                assert!(
                    (c - w).abs() / scale < 1e-6,
                    "vdd={vdd_mv} mV: cold {c} vs warm {w}"
                );
            }
            // Warm start from the answer converges essentially instantly.
            assert!(warm.iterations <= 3, "took {} iterations", warm.iterations);
        }
    }

    #[test]
    fn sweep_reuses_lu_factors_and_matches_pointwise_solves() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource("Vin", a, Netlist::GROUND, Waveform::Dc(0.0));
        net.resistor("R1", a, b, 1_000.0);
        net.resistor("R2", b, Netlist::GROUND, 1_000.0);
        let values: Vec<f64> = (0..8).map(|i| i as f64 * 0.25).collect();
        let swept = dc_sweep(&net, "Vin", &values).unwrap();
        for (i, &v) in values.iter().enumerate() {
            let mut point = net.clone();
            set_vsource_dc(&mut point, 0, v);
            let direct = dc_operating_point(&point).unwrap();
            assert!((swept[i].node_voltages[b] - direct.node_voltages[b]).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_netlist_is_rejected_before_solving() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(f64::NAN));
        net.resistor("R1", a, Netlist::GROUND, 1_000.0);
        assert!(matches!(
            dc_operating_point(&net),
            Err(SpiceError::InvalidNetlist { .. })
        ));
    }

    #[test]
    fn sweep_unknown_source_errors() {
        let net = Netlist::new();
        assert!(matches!(
            dc_sweep(&net, "nope", &[0.0]),
            Err(SpiceError::UnknownSource(_))
        ));
    }

    #[test]
    fn nfet_inverter_dc_rails() {
        use subvt_physics::{DeviceKind, DeviceParams};
        let nfet = DeviceParams::reference_90nm_nfet();
        let pfet = DeviceParams {
            kind: DeviceKind::Pfet,
            ..nfet
        };
        let nmod = nfet.mos_model();
        let pmod = pfet.mos_model();

        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let vin = net.node("in");
        let vout = net.node("out");
        net.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(1.2));
        net.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(0.0));
        net.mosfet("MP", pmod, 2.0, vout, vin, vdd);
        net.mosfet("MN", nmod, 1.0, vout, vin, Netlist::GROUND);

        // Input low → output high.
        let sol = dc_operating_point(&net).unwrap();
        assert!(
            (sol.node_voltages[vout] - 1.2).abs() < 0.01,
            "out = {}",
            sol.node_voltages[vout]
        );

        // Input high → output low.
        let mut net_hi = net.clone();
        set_vsource_dc(&mut net_hi, 1, 1.2);
        let sol = dc_operating_point(&net_hi).unwrap();
        assert!(
            sol.node_voltages[vout].abs() < 0.01,
            "out = {}",
            sol.node_voltages[vout]
        );
    }
}
