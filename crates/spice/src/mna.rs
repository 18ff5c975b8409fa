//! Modified nodal analysis: residual assembly, Newton–Raphson DC solve
//! with source stepping, and DC sweeps.
//!
//! Unknown vector layout: `x = [v_1 … v_{N−1}, i_1 … i_M]` — node voltages
//! (ground excluded) followed by one branch current per voltage source.
//! Branch current sign convention: positive current flows from the `pos`
//! terminal *through the source* to `neg` (passive convention), so a
//! supply delivering power has a negative branch current.
//!
//! DC sweeps and [`dc_operating_point_from`] warm-start Newton from a
//! neighbouring solution. A run scope that forces cold starts
//! ([`Scope::cold_start`](subvt_engine::scope::Scope::cold_start))
//! starts each of those solves from zeros instead; both must print the
//! same bytes.

use subvt_engine::{scope, trace};
use subvt_physics::math::max_abs;
use subvt_physics::{DeviceKind, PreparedMos};
use subvt_units::Volts;

use crate::linalg::{DenseMatrix, LuFactors};
use crate::netlist::{Element, Netlist, Waveform};

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
    /// A transient specification that cannot produce any time points,
    /// or asks for more steps than a run can hold.
    InvalidTransientSpec {
        /// Requested time step, seconds.
        dt: f64,
        /// Requested stop time, seconds.
        t_stop: f64,
    },
    /// An initial solution whose shape does not match the netlist.
    MismatchedInitialSolution {
        /// The node voltages (ground included) and branch currents it
        /// holds.
        given: (usize, usize),
        /// What the netlist needs: one voltage per node, one current per
        /// voltage source.
        expected: (usize, usize),
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
            SpiceError::MismatchedInitialSolution { given, expected } => {
                write!(
                    f,
                    "initial solution holds {} node voltages and {} branch currents; \
                     the netlist needs {} and {}",
                    given.0, given.1, expected.0, expected.1
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
    /// `v_prev` holds each capacitor's voltage and `i_prev` its current
    /// at the previous step (trapezoidal only; zeros for BE), in netlist
    /// order.
    Companion {
        /// Conductance multiplier (`1/h` for BE, `2/h` for trapezoidal).
        factor: f64,
        /// Capacitor voltages at the previous accepted time point.
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

/// What one solve hands to the next over the same circuit shape (sweep
/// points, Monte-Carlo samples): the LU pivot order, each MOSFET's last
/// evaluation, and the work counted so far.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// LU factors reused via cached-pivot refactorization.
    pub(crate) lu: LuFactors,
    /// One slot per MOSFET, in netlist order.
    mos: Vec<MosSlot>,
    /// The work done through this workspace, not yet reported.
    pub(crate) tally: Tally,
}

impl Workspace {
    /// Prepares one slot per MOSFET of `net`. A slot keeps its last
    /// evaluation only while the device's [`PreparedMos`] is equal to the
    /// one that produced it, so a netlist with other devices (another
    /// Monte-Carlo sample) never sees this one's evaluations.
    fn bind(&mut self, net: &Netlist) {
        let devices = net.elements().iter().filter_map(|e| match &e.element {
            Element::Mosfet(inst) => Some(PreparedMos::new(&inst.model)),
            _ => None,
        });
        let mut slots = Vec::with_capacity(self.mos.len());
        for (i, prepared) in devices.enumerate() {
            let last = self
                .mos
                .get(i)
                .filter(|slot| slot.prepared == prepared)
                .and_then(|slot| slot.last);
            slots.push(MosSlot { prepared, last });
        }
        self.mos = slots;
    }
}

/// One MOSFET's prepared evaluator and its last evaluation. The device's
/// current and derivatives are a pure function of its [`PreparedMos`] and
/// its bias `(v_gs, v_ds)`, so a stamp at the same bias bits reuses the
/// evaluation bit for bit instead of recomputing it.
#[derive(Debug, Clone)]
struct MosSlot {
    prepared: PreparedMos,
    /// The bits of the last `(v_gs, v_ds)` and the `(I, ∂I/∂v_gs,
    /// ∂I/∂v_ds)` per micron, in the magnitude frame, evaluated there.
    last: Option<([u64; 2], (f64, f64, f64))>,
}

impl MosSlot {
    /// [`PreparedMos::drain_current_and_derivs`] at `(v_gs, v_ds)`,
    /// computed only when the bias differs from the last one.
    fn eval(&mut self, v_gs: f64, v_ds: f64, tally: &mut Tally) -> (f64, f64, f64) {
        let bias = [v_gs.to_bits(), v_ds.to_bits()];
        if let Some((seen, iv)) = self.last {
            if seen == bias {
                tally.mos_reused += 1;
                return iv;
            }
        }
        let (i, di_dvgs, di_dvds) = self
            .prepared
            .drain_current_and_derivs(Volts::new(v_gs), Volts::new(v_ds));
        let iv = (i.get(), di_dvgs, di_dvds);
        self.last = Some((bias, iv));
        tally.mos_evals += 1;
        iv
    }
}

/// The work of one analysis, counted locally and reported to the tracer
/// once, when the analysis ends ([`Tally::emit`]), so a transient takes
/// the tracer lock a fixed number of times however many steps it runs.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// `spice.dc.solves`: DC operating-point solves.
    pub(crate) dc_solves: u64,
    /// `spice.newton.warm_start`: DC solves started from a previous one.
    pub(crate) warm_starts: u64,
    /// `spice.tran.runs`: completed transients.
    pub(crate) tran_runs: u64,
    /// `spice.lu.factor`: full pivot searches that succeeded.
    lu_factor: u64,
    /// `spice.lu.resolve`: cached-pivot refactorizations that succeeded.
    lu_resolve: u64,
    /// `spice.mos.evals`: MOSFET evaluations computed.
    mos_evals: u64,
    /// `spice.mos.reused`: MOSFET stamps served from the device's last
    /// evaluation.
    mos_reused: u64,
    /// `spice.newton.iterations` samples: one per returned DC solution
    /// and per transient step.
    pub(crate) newton_iterations: Vec<f64>,
    /// `spice.tran.steps` samples: one per completed transient.
    pub(crate) tran_steps: Vec<f64>,
}

impl Tally {
    /// Adds `other`'s counts and samples to this tally.
    fn absorb(&mut self, other: Tally) {
        self.dc_solves += other.dc_solves;
        self.warm_starts += other.warm_starts;
        self.tran_runs += other.tran_runs;
        self.lu_factor += other.lu_factor;
        self.lu_resolve += other.lu_resolve;
        self.mos_evals += other.mos_evals;
        self.mos_reused += other.mos_reused;
        self.newton_iterations.extend(other.newton_iterations);
        self.tran_steps.extend(other.tran_steps);
    }

    /// Reports the tally under one tracer lock. A zero count adds
    /// nothing, so a counter appears only once something was counted.
    pub(crate) fn emit(&self) {
        trace::record_all(
            &[
                ("spice.dc.solves", self.dc_solves),
                ("spice.newton.warm_start", self.warm_starts),
                ("spice.tran.runs", self.tran_runs),
                ("spice.lu.factor", self.lu_factor),
                ("spice.lu.resolve", self.lu_resolve),
                ("spice.mos.evals", self.mos_evals),
                ("spice.mos.reused", self.mos_reused),
            ],
            &[
                ("spice.newton.iterations", &self.newton_iterations),
                ("spice.tran.steps", &self.tran_steps),
            ],
        );
    }
}

/// One element's stamp, compiled once per [`Solver`]. Terminals index
/// the ground-padded unknowns and residual, where ground is the spare
/// slot past the last unknown. Jacobian offsets are flat, and an entry
/// in ground's row or column is the spare slot past the `n²` entries
/// ([`DenseMatrix::with_sink`]). Replaying a stamp needs no ground
/// checks, and the real entries see the `+=` sequence an element-by-
/// element assembly applies.
#[derive(Debug)]
enum Stamp<'a> {
    /// A two-terminal conductance's `[a, b]`, its value, and its `[aa,
    /// ab, bb, ba]` offsets: a resistor's `1/R` and `None`, or the `k`-th
    /// capacitor's farads and `Some(k)`, stamped only as a companion
    /// model.
    Conductance([usize; 2], f64, Option<usize>, [usize; 4]),
    /// A voltage source's `[pos, neg]`, the unknown `row` of its branch
    /// current, its waveform and `[(pos, row), (row, pos), (neg, row),
    /// (row, neg)]` offsets.
    VSource([usize; 2], usize, &'a Waveform, [usize; 4]),
    /// A current source's `[pos, neg]` and waveform.
    ISource([usize; 2], &'a Waveform),
    /// A MOSFET's polarity, width, `[drain, gate, source]`, and the
    /// drain row's then the source row's offsets over those columns.
    Mosfet(DeviceKind, f64, [usize; 3], [usize; 6]),
}

/// Compiles `net`'s stamp plan over `dim` unknowns (see [`Stamp`]).
fn compile(net: &Netlist, dim: usize) -> Vec<Stamp<'_>> {
    let ix = |node: usize| node.checked_sub(1).unwrap_or(dim);
    let at = |r: usize, c: usize| {
        if r.max(c) < dim {
            r * dim + c
        } else {
            dim * dim
        }
    };
    let pair = |[a, b]: [usize; 2]| [at(a, a), at(a, b), at(b, b), at(b, a)];
    let (mut row, mut k) = (net.node_count() - 1, 0);
    let mut plan = Vec::with_capacity(net.elements().len());
    for named in net.elements() {
        plan.push(match &named.element {
            &Element::Resistor { a, b, ohms } => {
                let t = [ix(a), ix(b)];
                Stamp::Conductance(t, 1.0 / ohms, None, pair(t))
            }
            &Element::Capacitor { a, b, farads } => {
                let t = [ix(a), ix(b)];
                k += 1;
                Stamp::Conductance(t, farads, Some(k - 1), pair(t))
            }
            Element::VSource { pos, neg, waveform } => {
                let (p, n, r) = (ix(*pos), ix(*neg), row);
                row += 1;
                let jac = [at(p, r), at(r, p), at(n, r), at(r, n)];
                Stamp::VSource([p, n], r, waveform, jac)
            }
            Element::ISource { pos, neg, waveform } => {
                Stamp::ISource([ix(*pos), ix(*neg)], waveform)
            }
            Element::Mosfet(m) => {
                let [d, g, s] = [m.drain, m.gate, m.source].map(ix);
                let jac = [at(d, d), at(d, g), at(d, s), at(s, d), at(s, g), at(s, s)];
                Stamp::Mosfet(m.model.kind, m.width_um, [d, g, s], jac)
            }
        });
    }
    plan
}

/// Internal solver state shared by DC and transient analyses.
pub(crate) struct Solver<'a> {
    net: &'a Netlist,
    n_nodes: usize,
    /// Scale factor applied to all independent sources (source stepping).
    pub(crate) source_scale: f64,
    /// Evaluation time for waveforms.
    pub(crate) time: f64,
    /// Minimum conductance to ground on every node. Defaults to [`GMIN`];
    /// raised temporarily during gmin stepping.
    pub(crate) gmin: f64,
    plan: Vec<Stamp<'a>>,
    /// The unknowns, then ground's slot, which stays 0 V.
    x: Vec<f64>,
    /// The residual of the last [`Solver::assemble`], then ground's
    /// sink; Newton overwrites it with the LU solve's scratch.
    f: Vec<f64>,
    /// Newton's step.
    dx: Vec<f64>,
    /// The Jacobian of the last full [`Solver::assemble`], then the sink.
    jac: DenseMatrix,
    /// Persistent LU factors, device memo and tally: factors are reused
    /// across Newton iterations (and, when threaded in from a sweep,
    /// across bias points) via cached-pivot refactorization.
    pub(crate) work: Workspace,
    /// Largest |current| stamped into any KCL row during the last
    /// [`Solver::assemble`] — the unit-correct scale for the relative
    /// residual floor (branch rows are volt-valued and must not leak in).
    kcl_scale: f64,
}

impl<'a> Solver<'a> {
    pub(crate) fn new(net: &'a Netlist) -> Self {
        Self::with_work(net, Workspace::default())
    }

    /// A solver over `net` that continues from `work` (see
    /// [`Workspace::bind`]); its `work` field hands the workspace back.
    /// Its unknowns start at zero.
    pub(crate) fn with_work(net: &'a Netlist, mut work: Workspace) -> Self {
        let n_nodes = net.node_count();
        let dim = n_nodes - 1 + net.vsource_indices().len();
        work.bind(net);
        Self {
            net,
            n_nodes,
            source_scale: 1.0,
            time: 0.0,
            gmin: GMIN,
            plan: compile(net, dim),
            x: vec![0.0; dim + 1],
            f: vec![0.0; dim + 1],
            dx: vec![0.0; dim],
            jac: DenseMatrix::with_sink(dim),
            work,
            kcl_scale: 0.0,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.dx.len()
    }

    /// Sets every unknown to zero.
    pub(crate) fn reset(&mut self) {
        self.x.fill(0.0);
    }

    /// Starts from `initial`'s node voltages (which must be one per node)
    /// and branch currents; currents past the last source are ignored and
    /// missing ones start at zero.
    pub(crate) fn load(&mut self, initial: &DcSolution) {
        let (n_v, dim) = (self.n_nodes - 1, self.dim());
        self.x[..n_v].copy_from_slice(&initial.node_voltages[1..]);
        for (x, &b) in self.x[n_v..dim].iter_mut().zip(&initial.branch_currents) {
            *x = b;
        }
    }

    /// Each capacitor's voltage at the current unknowns and its
    /// capacitance, in netlist order.
    pub(crate) fn capacitors(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.plan.iter().filter_map(|stamp| match *stamp {
            Stamp::Conductance([a, b], farads, Some(_), _) => Some((self.x[a] - self.x[b], farads)),
            _ => None,
        })
    }

    /// Maps node voltages into a MOSFET's magnitude frame:
    /// `(v_gs, v_ds, sign)`, where `sign` turns the model's current back
    /// into the current into the drain terminal.
    #[inline]
    fn mos_frame(kind: DeviceKind, vd: f64, vg: f64, vs: f64) -> (f64, f64, f64) {
        match kind {
            DeviceKind::Nfet => (vg - vs, vd - vs, 1.0),
            DeviceKind::Pfet => (vs - vg, vs - vd, -1.0),
        }
    }

    /// Replays the stamp plan at the current unknowns: the Newton
    /// residual into `self.f`, the largest KCL current contribution into
    /// `self.kcl_scale` and, when `JAC`, the Jacobian into `self.jac`.
    /// Each MOSFET is evaluated only if its bias differs from its last
    /// evaluation ([`MosSlot::eval`]).
    pub(crate) fn assemble<const JAC: bool>(&mut self, caps: CapMode<'_>) {
        let Self {
            x, f, jac, work, ..
        } = self;
        let (x, dim) = (&x[..], self.dx.len());
        f.fill(0.0);
        let jac = jac.entries_mut();
        if JAC {
            jac.fill(0.0);
        }
        let tally = &mut work.tally;
        // Unit-correct scale for the relative residual floor: the largest
        // |current| any element pushes into a KCL row. Branch (KVL) rows
        // are volt-valued and deliberately excluded.
        let mut scale = 0.0f64;

        // g_min to ground on every node.
        let gmin = self.gmin;
        for i in 0..self.n_nodes - 1 {
            f[i] += gmin * x[i];
            if JAC {
                jac[i * dim + i] += gmin;
            }
            scale = scale.max((gmin * x[i]).abs());
        }

        let (source_scale, time) = (self.source_scale, self.time);
        let mut mos = work.mos.iter_mut();
        for stamp in &self.plan {
            match *stamp {
                Stamp::Conductance([a, b], value, cap, at) => {
                    let (g, i) = match (cap, caps) {
                        (None, _) => (value, value * (x[a] - x[b])),
                        (
                            Some(k),
                            CapMode::Companion {
                                factor,
                                v_prev,
                                i_prev,
                            },
                        ) => {
                            let g = factor * value;
                            let v_now = x[a] - x[b];
                            // BE: i = (C/h)(v − v_prev); trapezoidal adds
                            // the previous current: i = (2C/h)(v − v_prev)
                            // − i_prev.
                            (g, g * (v_now - v_prev[k]) - i_prev[k])
                        }
                        (Some(_), CapMode::Open) => continue,
                    };
                    scale = scale.max(i.abs());
                    f[a] += i;
                    f[b] -= i;
                    if JAC {
                        jac[at[0]] += g;
                        jac[at[1]] += -g;
                        jac[at[2]] += g;
                        jac[at[3]] += -g;
                    }
                }
                Stamp::VSource([p, n], row, waveform, at) => {
                    let value = source_scale * waveform.value_at(time);
                    let i_br = x[row];
                    scale = scale.max(i_br.abs());
                    f[p] += i_br;
                    f[n] -= i_br;
                    if JAC {
                        jac[at[0]] += 1.0;
                        jac[at[1]] += 1.0;
                        jac[at[2]] += -1.0;
                        jac[at[3]] += -1.0;
                    }
                    f[row] = x[p] - x[n] - value;
                }
                Stamp::ISource([p, n], waveform) => {
                    let value = source_scale * waveform.value_at(time);
                    scale = scale.max(value.abs());
                    // Current flows pos → neg through the source.
                    f[p] += value;
                    f[n] -= value;
                }
                Stamp::Mosfet(kind, w, [d, g, s], at) => {
                    let slot = mos.next().expect("one slot per MOSFET");
                    let (vgs, vds, sign) = Self::mos_frame(kind, x[d], x[g], x[s]);
                    // Analytic derivatives: one model evaluation per
                    // device instead of the four a forward difference
                    // needed, and exact conductances for Newton. For
                    // both polarities the node-frame chain rule collapses
                    // to `∂i_d/∂v_d = W·∂I/∂v_ds` and `∂i_d/∂v_g =
                    // W·∂I/∂v_gs` (the PFET's leading `−1` cancels against
                    // its reversed magnitude frame); `∂i_d/∂v_s` follows
                    // from charge conservation.
                    let (i, di_dvgs, di_dvds) = slot.eval(vgs, vds, tally);
                    let (id, g_d, g_g) = (sign * w * i, w * di_dvds, w * di_dvgs);
                    scale = scale.max(id.abs());
                    // Current into drain leaves the drain node; the same
                    // current enters the source node.
                    f[d] += id;
                    f[s] -= id;
                    if JAC {
                        // The drain row takes `(g_d, g_g, g_s)`, the
                        // source row their negatives.
                        let g = [g_d, g_g, -(g_d + g_g)];
                        for (at, sign) in [(&at[..3], 1.0), (&at[3..], -1.0)] {
                            for (&k, g) in at.iter().zip(g) {
                                jac[k] += sign * g;
                            }
                        }
                    }
                }
            }
        }
        self.kcl_scale = scale;
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
            (self.net.vsource_indices())
                .get(branch)
                .map(|&i| format!("branch of {}", self.net.elements()[i].name))
                .unwrap_or_else(|| format!("branch #{branch}"))
        };
        SpiceError::SingularMatrix { column, unknown }
    }

    /// Runs Newton from the current unknowns, leaving the converged point
    /// in them and returning the iterations it took.
    ///
    /// The Jacobian is assembled in place into the persistent workspace,
    /// and the LU factors are reused through cached-pivot
    /// refactorization whenever the pivot order stays stable — only the
    /// first iteration (or a pivot-order change) pays for a full pivot
    /// search. Each successful factorization is tallied in
    /// `self.work.tally`, on every exit path.
    ///
    /// The acceptance check assembles the residual at the accepted point,
    /// so the next solve from it (the next time step, the next sweep
    /// point) finds every MOSFET already evaluated there.
    pub(crate) fn newton(&mut self, caps: CapMode<'_>) -> Result<usize, SpiceError> {
        let (n_v, dim) = (self.n_nodes - 1, self.dim());
        for iter in 1..=MAX_NEWTON {
            self.assemble::<true>(caps);
            let rhs = &mut self.f[..dim];
            let f_norm = max_abs(rhs.iter().copied());
            rhs.iter_mut().for_each(|v| *v = -*v);
            let lu = &mut self.work.lu;
            if lu.refactor_cached(&self.jac).is_ok() {
                self.work.tally.lu_resolve += 1;
            } else {
                lu.factor(&self.jac)
                    .map_err(|e| self.singular_error(e.column))?;
                self.work.tally.lu_factor += 1;
            }
            self.work.lu.solve_into(&mut self.f[..dim], &mut self.dx);

            // Damped update: clamp voltage steps, tracking the *pre-clamp*
            // norms — a step pinned at the clamp used to masquerade as
            // progress, and branch-current blow-ups were invisible.
            let (x, dx) = (&mut self.x, &self.dx);
            let (max_dv_raw, max_di) = (
                max_abs(dx[..n_v].iter().copied()),
                max_abs(dx[n_v..].iter().copied()),
            );
            for (i, (x, d)) in x.iter_mut().zip(dx).enumerate() {
                *x += if i < n_v {
                    d.clamp(-MAX_DV, MAX_DV)
                } else {
                    *d
                };
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
            let branch_scale = max_abs(x[n_v..dim].iter().copied());
            if max_dv_raw < VTOL && max_di <= ITOL.max(1e-9 * branch_scale) {
                // Verify the KCL residual at the accepted point.
                self.assemble::<false>(caps);
                if max_abs(self.f[..n_v].iter().copied()) < self.residual_floor() {
                    return Ok(iter);
                }
            }
        }
        self.assemble::<false>(caps);
        Err(SpiceError::NoConvergence {
            iterations: MAX_NEWTON,
            residual: max_abs(self.f[..dim].iter().copied()),
        })
    }

    /// The node count (ground included) and branch-current count of
    /// one solution.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.n_nodes, self.dim() - (self.n_nodes - 1))
    }

    /// Appends the current unknowns to `voltages` (ground's 0 V, then
    /// one per node) and `currents` (one per voltage source).
    pub(crate) fn append_point(&self, voltages: &mut Vec<f64>, currents: &mut Vec<f64>) {
        let n_v = self.n_nodes - 1;
        voltages.push(0.0);
        voltages.extend_from_slice(&self.x[..n_v]);
        currents.extend_from_slice(&self.x[n_v..self.dim()]);
    }

    /// The current unknowns as a [`DcSolution`].
    pub(crate) fn to_solution(&self, iterations: usize) -> DcSolution {
        let (nodes, branches) = self.shape();
        let mut node_voltages = Vec::with_capacity(nodes);
        let mut branch_currents = Vec::with_capacity(branches);
        self.append_point(&mut node_voltages, &mut branch_currents);
        DcSolution {
            node_voltages,
            branch_currents,
            iterations,
        }
    }
}

/// Recovery-ladder site name for DC operating-point solves.
const DC_SITE: &str = "spice.dc";
/// Gmin-stepping ladder: raised minimum conductances solved with
/// continuation, ending back at the nominal [`GMIN`].
const GMIN_LADDER: [f64; 5] = [1.0e-3, 1.0e-5, 1.0e-7, 1.0e-9, GMIN];
/// Source-stepping ladder: the sources' scale, `k/10` for `k` = 1…10.
const SOURCE_LADDER: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

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
    let mut tally = Tally::default();
    let result = cold_operating_point(net, &mut tally);
    tally.emit();
    result
}

/// [`dc_operating_point`], tallying its work into `tally`.
fn cold_operating_point(net: &Netlist, tally: &mut Tally) -> Result<DcSolution, SpiceError> {
    net.validate()?;
    tally.dc_solves += 1;
    let mut solver = Solver::new(net);
    let result = operating_point_with_recovery(&mut solver);
    tally.absorb(solver.work.tally);
    if let Ok(sol) = &result {
        tally.newton_iterations.push(sol.iterations as f64);
    }
    result
}

/// The cold solve plus recovery ladder behind [`dc_operating_point`].
fn operating_point_with_recovery(solver: &mut Solver<'_>) -> Result<DcSolution, SpiceError> {
    use subvt_engine::{faultinject, recovery, recovery::RecoveryStep};

    // A plain solve is one setting of the nominal minimum conductance.
    let set_gmin: fn(&mut Solver<'_>, f64) = |solver, gmin| solver.gmin = gmin;
    let set_scale: fn(&mut Solver<'_>, f64) = |solver, scale| solver.source_scale = scale;
    let plain = (set_gmin, &[GMIN][..], GMIN);

    // Fault injection fires before any solver state exists, so the plain
    // Retry rung reproduces the fault-free result bit-for-bit.
    let first = if faultinject::should_inject(faultinject::FaultSite::SolverDiverge) {
        Err(SpiceError::NoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
        })
    } else {
        continuation(solver, plain)
    };
    let first_err = match first {
        Ok(sol) => return Ok(sol),
        Err(e) => e,
    };

    // A plain retry, then source stepping (sources ramped 10 % → 100 %),
    // then gmin stepping (the minimum conductance relaxed and walked back
    // down to nominal).
    let sources = (set_scale, &SOURCE_LADDER[..], 1.0);
    let gmins = (set_gmin, &GMIN_LADDER[..], GMIN);
    for (step, rung) in [
        (RecoveryStep::Retry, plain),
        (RecoveryStep::SourceStepping, sources),
        (RecoveryStep::GminStepping, gmins),
    ] {
        match continuation(solver, rung) {
            Ok(sol) => {
                recovery::record(DC_SITE, step, format!("{first_err}"), true);
                return Ok(sol);
            }
            Err(e) => recovery::record(DC_SITE, step, format!("{e}"), false),
        }
    }
    Err(first_err)
}

/// Newton from all-zero unknowns at each of `settings` in turn, applied
/// by `set`, each solve starting where the last one ended; `set` then
/// restores `nominal`. The solution reports the iterations of them all.
fn continuation(
    solver: &mut Solver<'_>,
    (set, settings, nominal): (fn(&mut Solver<'_>, f64), &[f64], f64),
) -> Result<DcSolution, SpiceError> {
    solver.reset();
    let mut iterations = 0;
    let result = settings.iter().try_for_each(|&setting| {
        set(solver, setting);
        iterations += solver.newton(CapMode::Open)?;
        Ok(())
    });
    set(solver, nominal);
    result.map(|()| solver.to_solution(iterations))
}

/// Solves a DC operating point starting from a previous solution
/// (continuation) — used by sweeps, Monte-Carlo samples, and the
/// transient initial condition.
///
/// Counts as one DC solve (`spice.dc.solves`) and one warm start
/// (`spice.newton.warm_start`), and a returned solution observes its
/// `spice.newton.iterations`. When the run scope forces cold starts
/// ([`Scope::cold_start`](subvt_engine::scope::Scope::cold_start)) the
/// initial guess is ignored and the solve routes through the cold
/// [`dc_operating_point`] path instead.
///
/// # Errors
///
/// [`SpiceError::MismatchedInitialSolution`] when `initial` does not
/// hold one voltage per node and one current per voltage source, even
/// when cold starts are forced; otherwise the first solver error.
pub fn dc_operating_point_from(
    net: &Netlist,
    initial: &DcSolution,
) -> Result<DcSolution, SpiceError> {
    check_initial_shape(net, initial)?;
    if scope::current().cold_start() {
        return dc_operating_point(net);
    }
    let mut work = Workspace::default();
    let result = dc_operating_point_from_with(net, initial, &mut work);
    work.tally.emit();
    result
}

/// Checks that `initial` holds one voltage per node (ground included)
/// and one current per voltage source of `net`, the shape
/// [`Solver::load`] copies from.
pub(crate) fn check_initial_shape(net: &Netlist, initial: &DcSolution) -> Result<(), SpiceError> {
    let sources = (net.elements().iter())
        .filter(|e| matches!(e.element, Element::VSource { .. }))
        .count();
    let given = (initial.node_voltages.len(), initial.branch_currents.len());
    let expected = (net.node_count(), sources);
    if given == expected {
        Ok(())
    } else {
        Err(SpiceError::MismatchedInitialSolution { given, expected })
    }
}

/// [`dc_operating_point_from`] through a caller-owned [`Workspace`], so
/// consecutive solves over structurally identical matrices (sweep points,
/// Monte-Carlo samples) reuse the cached pivot order, and each device's
/// last evaluation while the device is unchanged. The work is tallied in
/// `work.tally` for the caller to emit; the workspace is returned to the
/// caller even when the solve fails.
pub(crate) fn dc_operating_point_from_with(
    net: &Netlist,
    initial: &DcSolution,
    work: &mut Workspace,
) -> Result<DcSolution, SpiceError> {
    let mut solver = Solver::with_work(net, core::mem::take(work));
    solver.load(initial);
    solver.work.tally.dc_solves += 1;
    solver.work.tally.warm_starts += 1;
    let result = solver
        .newton(CapMode::Open)
        .map(|iters| solver.to_solution(iters));
    *work = solver.work;
    if let Ok(sol) = &result {
        work.tally.newton_iterations.push(sol.iterations as f64);
    }
    result
}

/// Sweeps the DC value of the named voltage source over `values`,
/// re-solving with continuation from the previous point. The points share
/// one [`Workspace`]: the LU pivot order (the matrices share structure),
/// and each device's evaluation at the previous point, where the next
/// solve starts. The sweep's work is reported once, at its end.
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

    let cold = scope::current().cold_start();
    let mut ws = Workspace::default();
    let result = (|| {
        let mut results: Vec<DcSolution> = Vec::with_capacity(values.len());
        for &value in values {
            set_vsource_dc(&mut work, idx, value);
            let sol = match results.last() {
                Some(p) if !cold => dc_operating_point_from_with(&work, p, &mut ws)
                    .or_else(|_| cold_operating_point(&work, &mut ws.tally))?,
                _ => cold_operating_point(&work, &mut ws.tally)?,
            };
            results.push(sol);
        }
        Ok(results)
    })();
    ws.tally.emit();
    result
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

    /// `(factor, v_prev, i_prev)` of a companion-model assembly: the
    /// previous node voltages in unknown order (ground excluded) and one
    /// previous current per capacitor.
    type Companion<'c> = Option<(f64, &'c [f64], &'c [f64])>;

    /// One assembly at `x`: the residual, `kcl_scale` and the row-major
    /// Jacobian. `None` leaves the capacitors open.
    fn stamped(
        solver: &mut Solver<'_>,
        x: &[f64],
        companion: Companion<'_>,
    ) -> (Vec<f64>, f64, Vec<f64>) {
        let n = solver.dim();
        solver.x[..n].copy_from_slice(x);
        match companion {
            Some((factor, v_prev, i_prev)) => {
                // Each capacitor's previous voltage, from the node voltages.
                let node = |i: usize| i.checked_sub(1).map_or(0.0, |i| v_prev[i]);
                let cap_v: Vec<f64> = (solver.net.elements().iter())
                    .filter_map(|e| match e.element {
                        Element::Capacitor { a, b, .. } => Some(node(a) - node(b)),
                        _ => None,
                    })
                    .collect();
                solver.assemble::<true>(CapMode::Companion {
                    factor,
                    v_prev: &cap_v,
                    i_prev,
                });
            }
            None => solver.assemble::<true>(CapMode::Open),
        }
        let jac = (0..n * n).map(|k| solver.jac.get(k / n, k % n)).collect();
        (solver.f[..n].to_vec(), solver.kcl_scale, jac)
    }

    /// The bits of a [`stamped`] result, residual first.
    fn stamp_bits((f, scale, jac): &(Vec<f64>, f64, Vec<f64>)) -> Vec<u64> {
        let mut bits: Vec<u64> = f.iter().map(|v| v.to_bits()).collect();
        bits.push(scale.to_bits());
        bits.extend(jac.iter().map(|v| v.to_bits()));
        bits
    }

    /// One element of every kind, each with a terminal on ground (the
    /// resistor and the current source on their first): a pulsed supply
    /// on `a`, an NFET pulling `b` down under `a`, a PFET from `c` to
    /// ground under `b`, and `c` fed by a current source and held by a
    /// capacitor.
    fn every_element_kind() -> Netlist {
        use subvt_physics::{DeviceKind, DeviceParams};
        let nfet = DeviceParams::reference_90nm_nfet();
        let pfet = DeviceParams {
            kind: DeviceKind::Pfet,
            ..nfet
        };
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        let c = net.node("c");
        let pulse = Waveform::Pulse {
            v0: 0.0,
            v1: 0.25,
            delay: 1.0e-10,
            rise: 3.0e-11,
            fall: 3.0e-11,
            width: 1.0e-9,
            period: f64::INFINITY,
        };
        net.vsource("V1", a, Netlist::GROUND, pulse);
        net.resistor("R1", Netlist::GROUND, b, 1.3e5);
        net.capacitor("C1", c, Netlist::GROUND, 0.7e-15);
        net.isource("I1", Netlist::GROUND, c, Waveform::Dc(2.5e-9));
        net.mosfet("MN", nfet.mos_model(), 1.0, b, a, Netlist::GROUND);
        net.mosfet("MP", pfet.mos_model(), 2.0, Netlist::GROUND, b, c);
        net
    }

    #[test]
    fn assembly_keeps_its_bits() {
        // Recorded from the element-by-element assembly; a rewrite of it
        // must stamp the same bits. Per point: the residual (a, b, c,
        // V1's branch), `kcl_scale` and the 4×4 Jacobian, row-major.
        const PINNED: [(f64, [f64; 4], [u64; 21]); 3] = [
            (
                1.15e-10,
                [0.19, 0.07, 0.12, -3.1e-7],
                [
                    0xbe94cdc195334259,
                    0x3ea216340c0c35aa,
                    0x3f19b0875f27773e,
                    0x3fb0a3d70a3d70a4,
                    0x3f19b0b20d4e8a35,
                    0x3d719799812dea11,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x3ff0000000000000,
                    0x3e50daf036641875,
                    0x3ee023461c9b72f8,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0xbdfdce11a52e00a3,
                    0x3f56f00710170429,
                    0x0000000000000000,
                    0x3ff0000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                ],
            ),
            (
                5.0e-10,
                [0.25, 0.01, 0.24, 1.7e-9],
                [
                    0x3e1d35c7510d4c75,
                    0x3e74e93d11f742e0,
                    0x3f316ec1591351b2,
                    0x0000000000000000,
                    0x3f316ebf04cb0672,
                    0x3d719799812dea11,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x3ff0000000000000,
                    0x3e5cedce2eb9ef1f,
                    0x3ee04cd226ad4190,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0xbe769aa7f15ff00d,
                    0x3f56f06801d13c02,
                    0x0000000000000000,
                    0x3ff0000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                ],
            ),
            (
                0.0,
                [-0.03, 0.31, -0.0, 0.0],
                [
                    0xbd20e374a4f8e0b4,
                    0x3ec400ed8ffc8217,
                    0xbf1259c2ebacc9be,
                    0xbf9eb851eb851eb8,
                    0x3f125997f88f055d,
                    0x3d719799812dea11,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x3ff0000000000000,
                    0x3dd103a7e1f94bed,
                    0x3ee021c78474a41b,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x3f56f0068e00b419,
                    0x0000000000000000,
                    0x3ff0000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                ],
            ),
        ];
        let net = every_element_kind();
        let v_prev = [0.1, 0.2, 0.05];
        let i_prev = [-4.0e-10];
        let mut solver = Solver::new(&net);
        for (time, x, want) in PINNED {
            solver.time = time;
            let got = stamped(&mut solver, &x, Some((2.0e12, &v_prev, &i_prev)));
            assert_eq!(stamp_bits(&got), want, "t = {time:e}, x = {x:?}");
        }
    }

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
    fn dc_warm_start_rejects_a_solution_that_does_not_fit_the_netlist() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(3.0));
        net.resistor("R1", a, b, 1_000.0);
        net.resistor("R2", b, Netlist::GROUND, 2_000.0);
        let op = dc_operating_point(&net).unwrap();
        for (nodes, branches) in [(2, 1), (4, 1), (0, 1), (3, 0), (3, 2)] {
            let initial = DcSolution {
                node_voltages: vec![0.0; nodes],
                branch_currents: vec![0.0; branches],
                ..op.clone()
            };
            assert_eq!(
                dc_operating_point_from(&net, &initial),
                Err(SpiceError::MismatchedInitialSolution {
                    given: (nodes, branches),
                    expected: (3, 1),
                })
            );
        }
        // The solution's own shape still warm-starts.
        assert!(dc_operating_point_from(&net, &op).is_ok());
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
    fn the_source_ladder_holds_the_bits_of_k_over_10() {
        let steps: [f64; 10] = core::array::from_fn(|k| (k + 1) as f64 / 10.0);
        assert_eq!(SOURCE_LADDER.map(f64::to_bits), steps.map(f64::to_bits));
    }

    #[test]
    fn injected_divergence_recovers_bit_identically() {
        use subvt_engine::faultinject::{self, FaultPlan};

        let _scope = scope::Scope::fresh().enter();
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.2));
        net.resistor("R1", a, b, 10_000.0);
        net.resistor("R2", b, Netlist::GROUND, 5_000.0);

        let clean = dc_operating_point(&net).unwrap();

        let mut plan = FaultPlan::quiet(77);
        plan.p_diverge = 1.0;
        faultinject::configure(Some(plan));
        let recovered = dc_operating_point(&net);

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
    fn a_single_nan_unknown_is_no_convergence_not_a_solution() {
        let mut net = Netlist::new();
        let (a, b) = (net.node("a"), net.node("b"));
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0));
        net.resistor("R1", a, b, 1.0e3);
        net.resistor("R2", b, Netlist::GROUND, 1.0e3);
        let mut solver = Solver::new(&net);
        solver.x[1] = f64::NAN;
        let err = solver.newton(CapMode::Open).unwrap_err();
        assert!(matches!(err, SpiceError::NoConvergence { .. }), "{err:?}");
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
        let (f, _, _) = stamped(&mut solver, &x0, None);
        // At x = 0 the branch row carries the full −1e6 V source value…
        assert!(max_abs(f.iter().copied()) >= 1.0e6);
        let old_floor = ITOL.max(1e-9 * max_abs(f.iter().copied()));
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
        let err = solver.newton(CapMode::Open);
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
        match solver.newton(CapMode::Open) {
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
        match solver.newton(CapMode::Open) {
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
            let result = solver.newton(CapMode::Open);
            let tally = &solver.work.tally;
            (result, tally.lu_factor + tally.lu_resolve)
        };

        // Converged: one factorization per iteration.
        let mut net = gate_walk(0.2);
        let mut solver = Solver::new(&net);
        let (result, n) = counted(&mut solver);
        let iterations = result.expect("converges");
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
        let mut factorable = 0u64;
        let mut v_gate: f64 = 0.0;
        loop {
            // Unit width: the drain row's g_d is ∂I/∂v_ds itself.
            let prepared = &solver.work.mos[0].prepared;
            let (_, _, g_d) =
                prepared.drain_current_and_derivs(Volts::new(v_gate), Volts::new(0.0));
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

    /// A CMOS inverter at `v_dd`/`v_in` whose NFET threshold is moved by
    /// `d_vth` (a Monte-Carlo sample's perturbation), loaded by `c_load`.
    fn inverter(v_dd: f64, v_in: f64, d_vth: f64, c_load: f64) -> Netlist {
        use subvt_physics::{DeviceKind, DeviceParams};
        let nfet = DeviceParams::reference_90nm_nfet();
        let pfet = DeviceParams {
            kind: DeviceKind::Pfet,
            ..nfet
        };
        let mut nmod = nfet.mos_model();
        nmod.v_th_lin = Volts::new(nmod.v_th_lin.as_volts() + d_vth);
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let vin = net.node("in");
        let vout = net.node("out");
        net.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(v_dd));
        net.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(v_in));
        net.mosfet("MP", pfet.mos_model(), 2.0, vout, vin, vdd);
        net.mosfet("MN", nmod, 1.0, vout, vin, Netlist::GROUND);
        net.capacitor("CL", vout, Netlist::GROUND, c_load);
        net
    }

    #[test]
    fn a_memo_hit_stamps_the_bits_a_fresh_solver_stamps() {
        let net = inverter(0.3, 0.1, 0.0, 1.0e-15);
        let mut solver = Solver::new(&net);
        let mut rng = subvt_engine::rng::SplitMix64::new(0x7e5d);
        let companion = Some((2.0e12, &[0.3, 0.1, 0.2][..], &[1.0e-9][..]));
        for _ in 0..256 {
            let x: Vec<f64> = (0..solver.dim())
                .map(|_| -0.5 + 1.5 * rng.next_f64())
                .collect();
            // The first stamp at `x` evaluates both devices; the second
            // reuses both evaluations.
            stamped(&mut solver, &x, companion);
            let reused = solver.work.tally.mos_reused;
            let hit = stamped(&mut solver, &x, companion);
            assert_eq!(solver.work.tally.mos_reused, reused + 2);

            let mut fresh = Solver::new(&net);
            let want = stamped(&mut fresh, &x, companion);
            assert_eq!(fresh.work.tally.mos_reused, 0);
            assert_eq!(stamp_bits(&hit), stamp_bits(&want), "x = {x:?}");
        }
    }

    #[test]
    fn the_residual_only_pass_stamps_the_full_pass_residual() {
        let mut rng = subvt_engine::rng::SplitMix64::new(0x5e1f);
        for net in [every_element_kind(), inverter(0.3, 0.1, 0.0, 1.0e-15)] {
            let caps = CapMode::Companion {
                factor: 2.0e12,
                v_prev: &[0.02],
                i_prev: &[-1.0e-9],
            };
            let mut full = Solver::new(&net);
            let mut residual_only = Solver::new(&net);
            let n = full.dim();
            for _ in 0..64 {
                let time = 2.0e-10 * rng.next_f64();
                for solver in [&mut full, &mut residual_only] {
                    solver.time = time;
                }
                for k in 0..n {
                    let v = -0.5 + 1.5 * rng.next_f64();
                    full.x[k] = v;
                    residual_only.x[k] = v;
                }
                full.assemble::<true>(caps);
                residual_only.assemble::<false>(caps);
                let bits = |s: &Solver<'_>| {
                    let mut bits: Vec<u64> = s.f[..n].iter().map(|v| v.to_bits()).collect();
                    bits.push(s.kcl_scale.to_bits());
                    bits
                };
                assert_eq!(bits(&full), bits(&residual_only), "t = {time:e}");
            }
        }
    }

    #[test]
    fn samples_sharing_a_workspace_solve_as_fresh_samples_do() {
        // Two Monte-Carlo samples of one inverter. The second starts from
        // the first one's solution, exactly where the shared workspace
        // holds the first sample's device evaluations; with another NFET
        // it must not reuse that device's evaluation. The reference
        // carries the same LU pivot order (a cached pivot order is not
        // bit-identical to a fresh pivot search) and no evaluations.
        let a = inverter(0.25, 0.12, 0.0, 1.0e-15);
        let b = inverter(0.25, 0.12, 0.031, 1.0e-15);
        let start = dc_operating_point(&a).expect("nominal solves");
        let solve = |net: &Netlist, from: &DcSolution, ws: &mut Workspace| {
            dc_operating_point_from_with(net, from, ws).expect("sample solves")
        };
        let bits = |s: &DcSolution| {
            s.node_voltages
                .iter()
                .chain(&s.branch_currents)
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };

        let mut shared = Workspace::default();
        let first = solve(&a, &start, &mut shared);
        assert_eq!(
            bits(&first),
            bits(&solve(&a, &start, &mut Workspace::default()))
        );
        let mut lu_only = Workspace {
            lu: shared.lu.clone(),
            ..Workspace::default()
        };
        let reused = shared.tally.mos_reused;
        let second = solve(&b, &first, &mut shared);
        let want = solve(&b, &first, &mut lu_only);
        assert_eq!(bits(&second), bits(&want));
        assert_eq!(second.iterations, want.iterations);
        assert!(first.node_voltages[3] != second.node_voltages[3]);
        // Only the unchanged PFET's evaluation carried over.
        assert_eq!(
            shared.tally.mos_reused,
            reused + 1 + lu_only.tally.mos_reused
        );
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

    /// A forced cold start does not hide a warm-start solution of the
    /// wrong shape: `dc_operating_point_from` rejects it before it
    /// decides to ignore it.
    #[test]
    fn forced_cold_start_still_rejects_a_mismatched_initial_solution() {
        let cold = scope::Scope::fresh();
        cold.set_cold_start(true);
        let _scope = cold.enter();
        let mut net = Netlist::new();
        let a = net.node("a");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0));
        net.resistor("R1", a, Netlist::GROUND, 1_000.0);
        let initial = DcSolution {
            node_voltages: vec![0.0; 3],
            branch_currents: vec![0.0],
            iterations: 0,
        };
        assert_eq!(
            dc_operating_point_from(&net, &initial),
            Err(SpiceError::MismatchedInitialSolution {
                given: (3, 1),
                expected: (2, 1),
            })
        );
    }

    /// Every Newton solve adds its LU factorizations to
    /// `spice.lu.factor` + `spice.lu.resolve` exactly once, whichever
    /// way it ends: converged, out of iterations, divergent, or on a
    /// singular matrix.
    #[test]
    fn each_newton_solve_counts_its_factorizations_once() {
        use crate::transient::transient_from;
        use crate::{Integrator, TransientSpec};
        use subvt_physics::{DeviceKind, DeviceParams};

        let _scope = scope::Scope::fresh().enter();
        // `spice.lu.factor + spice.lu.resolve` added while `run` ran.
        fn factorizations<T>(run: impl FnOnce() -> T) -> (T, u64) {
            let total = || {
                let snap = trace::global().snapshot();
                ["spice.lu.factor", "spice.lu.resolve"]
                    .iter()
                    .map(|name| snap.counters.get(*name).copied().unwrap_or(0))
                    .sum::<u64>()
            };
            let before = total();
            let out = run();
            (out, total() - before)
        }
        // One transient step from all-zero unknowns: exactly one Newton
        // solve.
        fn one_newton(net: &Netlist) -> Result<usize, SpiceError> {
            let sources = net
                .elements()
                .iter()
                .filter(|e| matches!(e.element, Element::VSource { .. }))
                .count();
            let zeros = DcSolution {
                node_voltages: vec![0.0; net.node_count()],
                branch_currents: vec![0.0; sources],
                iterations: 0,
            };
            let spec = TransientSpec::with_steps(1.0e-12, 1, Integrator::BackwardEuler);
            transient_from(net, spec, &zeros).map(|res| res.newton_iterations[0])
        }
        let nfet = DeviceParams::reference_90nm_nfet();

        // Converged: one factorization per iteration.
        let mut inverter = Netlist::new();
        let vdd = inverter.node("vdd");
        let vin = inverter.node("in");
        let out = inverter.node("out");
        inverter.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(0.25));
        inverter.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(0.1));
        let pfet = DeviceParams {
            kind: DeviceKind::Pfet,
            ..nfet
        };
        inverter.mosfet("MP", pfet.mos_model(), 2.0, out, vin, vdd);
        inverter.mosfet("MN", nfet.mos_model(), 1.0, out, vin, Netlist::GROUND);
        let (iterations, n) = factorizations(|| one_newton(&inverter).expect("converges"));
        assert!(iterations > 1);
        assert_eq!(n, iterations as u64);

        // Out of iterations: a gate walked toward −1000 V by the 0.3 V
        // step clamp is still far short after the 200-iteration budget.
        let walk = gate_walk(-1000.0);
        match factorizations(|| one_newton(&walk)) {
            (Err(SpiceError::NoConvergence { iterations, .. }), n) => {
                assert_eq!(iterations, 200);
                assert_eq!(n, 200);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }

        // Divergent: the guard stops the first step, after one
        // factorization.
        let mut blowup = Netlist::new();
        let a = blowup.node("a");
        blowup.isource("I1", Netlist::GROUND, a, Waveform::Dc(f64::MAX));
        blowup.resistor("R1", a, Netlist::GROUND, 1_000.0);
        match factorizations(|| one_newton(&blowup)) {
            (Err(SpiceError::NoConvergence { iterations: 1, .. }), n) => assert_eq!(n, 1),
            other => panic!("expected NoConvergence after one step, got {other:?}"),
        }

        // Singular: the first factorization fails and nothing is counted.
        let mut looped = Netlist::new();
        let l = looped.node("looped");
        looped.vsource("V1", l, Netlist::GROUND, Waveform::Dc(1.0));
        looped.vsource("V2", l, Netlist::GROUND, Waveform::Dc(2.0));
        match factorizations(|| one_newton(&looped)) {
            (Err(SpiceError::SingularMatrix { .. }), n) => assert_eq!(n, 0),
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }
}
