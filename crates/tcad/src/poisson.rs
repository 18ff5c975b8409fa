//! Nonlinear Poisson solve: finite-volume discretization with Boltzmann
//! carriers and damped Newton iteration.
//!
//! Unknowns are node potentials `ψ` referenced to the intrinsic Fermi
//! level. Silicon nodes carry the charge
//! `ρ = q·(p − n + N_net)` with `n = n_i·e^{(ψ−φ_n)/v_T}`,
//! `p = n_i·e^{(φ_p−ψ)/v_T}`; oxide nodes are charge-free. Contacts are
//! Dirichlet; every other boundary is a natural Neumann (reflecting)
//! boundary of the finite-volume scheme. Each Newton step solves its
//! Jacobian directly with the banded LDLᵀ, nodes numbered along the
//! mesh's shorter axis. The Jacobian is symmetric once the Dirichlet
//! columns are folded away: a contact row is the identity, and a
//! neighbour of a contact moves the contact's term `c·(bc − ψ_c)` to its
//! right-hand side. Each solve computes the contact potentials once,
//! when its bias first reaches the [`Workspace`].
//!
//! [`solve`] iterates to an update below 1 nV. The Gummel loop stops
//! each of its Poisson solves at a loose tolerance instead (an inexact
//! inner solve): it relinearizes after every continuity solve, and its
//! own 10 nV test on the potential change decides convergence, so
//! resolving each linearization to 1 nV only repeats banded solves.
//!
//! For the same reason the Gummel loop does not refactor the Jacobian
//! at every step (the chord rule). The first Poisson solve of a bias
//! point is a plain Newton solve, and the [`Workspace`] keeps the LDLᵀ
//! factors of its last Jacobian. Later solves are chord solves: each
//! step assembles the residual alone and runs a forward and a back
//! substitution on those factors. A chord step that does not halve the
//! update refactors at the next step, and an iteration whose Gummel
//! residual rose makes the next solve a Newton solve again. The factors
//! never outlive one bias point's Gummel loop. [`solve`] and
//! [`solve_to`] factor at every step.

use subvt_engine::trace;
use subvt_physics::math::max_abs;
use subvt_units::consts::{EPS_OX, EPS_SI, Q};

use crate::banded::{SymBandedMatrix, ZeroPivotError};
use crate::device::{Mosfet2d, N_POLY};
use crate::mesh::{BandOrder, Boundary, Material, Mesh};

/// Applied contact voltages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bias {
    /// Gate voltage, V.
    pub v_gate: f64,
    /// Drain voltage, V.
    pub v_drain: f64,
    /// Source voltage, V.
    pub v_source: f64,
    /// Substrate voltage, V.
    pub v_substrate: f64,
}

/// Result of one Poisson Newton solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonSolve {
    /// Newton iterations consumed.
    pub iterations: usize,
    /// Final update infinity-norm, volts.
    pub max_update: f64,
    /// Whether the solve's stopping tolerance was met.
    pub converged: bool,
}

/// Newton update clamp, volts.
const MAX_DPSI: f64 = 0.25;
/// Convergence tolerance of [`solve`] on the update infinity-norm, volts.
pub(crate) const PSI_TOL: f64 = 1.0e-9;
/// Maximum Newton iterations.
const MAX_NEWTON: usize = 120;
/// A chord step must shrink the update below this fraction of the
/// previous step's, or the next step refactors the Jacobian.
const CHORD_CONTRACTION: f64 = 0.5;

/// Thermal voltage and intrinsic density of the device's temperature.
pub(crate) fn thermals(device: &Mosfet2d) -> (f64, f64) {
    let vt = device.params.temperature.thermal_voltage().as_volts();
    let ni = subvt_physics::silicon::intrinsic_density(device.params.temperature).get();
    (vt, ni)
}

/// Built-in (charge-neutral) potential of a silicon node with net signed
/// doping `n_net`: `ψ = v_T·asinh(N/(2·n_i))`.
pub fn neutral_potential(n_net: f64, vt: f64, ni: f64) -> f64 {
    vt * (n_net / (2.0 * ni)).asinh()
}

/// Dirichlet potential of a contact node under `bias`, `None` off the
/// contacts. `(vt, ni)` are the device's [`thermals`], which callers
/// compute once per solve rather than once per node.
fn contact_potential(device: &Mosfet2d, idx: usize, bias: &Bias, vt: f64, ni: f64) -> Option<f64> {
    match device.mesh.boundary[idx] {
        Boundary::Gate => Some(bias.v_gate + vt * (N_POLY / ni).ln()),
        Boundary::Source => Some(bias.v_source + neutral_potential(device.doping[idx], vt, ni)),
        Boundary::Drain => Some(bias.v_drain + neutral_potential(device.doping[idx], vt, ni)),
        Boundary::Substrate => {
            Some(bias.v_substrate + neutral_potential(device.doping[idx], vt, ni))
        }
        Boundary::Interior => None,
    }
}

/// Charge-neutral initial guess for the potential field.
pub fn initial_guess(device: &Mosfet2d, bias: &Bias) -> Vec<f64> {
    let (vt, ni) = thermals(device);
    let mesh = &device.mesh;
    let mut psi = vec![0.0; mesh.len()];
    for j in 0..mesh.ny() {
        for i in 0..mesh.nx() {
            let idx = mesh.idx(i, j);
            psi[idx] = match contact_potential(device, idx, bias, vt, ni) {
                Some(v) => v,
                None => match mesh.material[idx] {
                    Material::Silicon => neutral_potential(device.doping[idx], vt, ni),
                    // Oxide: seed with the gate Dirichlet level.
                    Material::Oxide => bias.v_gate + vt * (N_POLY / ni).ln(),
                },
            };
        }
    }
    psi
}

fn eps_of(material: Material) -> f64 {
    match material {
        Material::Silicon => EPS_SI,
        Material::Oxide => EPS_OX,
    }
}

/// Face coupling `ε_face·A/d` between two neighbouring nodes; `a` is the
/// cross-sectional dual width transverse to the face. Symmetric in the
/// two nodes, bit for bit.
fn coupling(mat: &[Material], ia: usize, ib: usize, d: f64, a: f64) -> f64 {
    let ea = eps_of(mat[ia]);
    let eb = eps_of(mat[ib]);
    // Harmonic mean handles the Si/SiO2 interface.
    let eps = 2.0 * ea * eb / (ea + eb);
    eps * a / d
}

/// Scratch shared by the Gummel loop's two linear solves, allocated once
/// per [`crate::DeviceSimulator`] so that no Newton or Gummel iteration
/// allocates. It holds a band buffer for each system, the right-hand
/// side that the banded LDLᵀ overwrites with the solution, the contact
/// potentials of the last bias, the Slotboom factors of the continuity
/// solve, and the Poisson face couplings, which depend on the device
/// alone. The Poisson buffer is never written by the continuity solve,
/// so the factors it holds after a factorization survive for the chord
/// steps of a Gummel loop.
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    /// The Poisson Jacobian, and after a factorization its factors.
    poisson: SymBandedMatrix,
    /// Whether `poisson` holds the factors of a successful
    /// factorization that a chord step may reuse.
    factored: bool,
    /// The bias whose Dirichlet potentials `contact_psi` holds.
    contacts_at: Option<Bias>,
    /// Dirichlet potential of each contact node, stored at its mesh
    /// index (entries off the contacts are unused).
    contact_psi: Vec<f64>,
    pub(crate) continuity: SymBandedMatrix,
    pub(crate) rhs: Vec<f64>,
    /// `e^{ψ/v_T}` of each silicon node at the last continuity solve,
    /// stored at its mesh index.
    pub(crate) slotboom: Vec<f64>,
    /// Coupling of the face from node `(i, j)` to `(i + 1, j)`, stored
    /// at `mesh.idx(i, j)`.
    coupling_x: Vec<f64>,
    /// Coupling of the face from node `(i, j)` to `(i, j + 1)`, stored
    /// at `mesh.idx(i, j)`.
    coupling_y: Vec<f64>,
}

/// Workspaces compare by the device constants they hold: the scratch
/// buffers carry nothing from one solve to the next, and the Poisson
/// factors nothing beyond one Gummel loop.
impl PartialEq for Workspace {
    fn eq(&self, other: &Self) -> bool {
        self.coupling_x == other.coupling_x && self.coupling_y == other.coupling_y
    }
}

impl Workspace {
    /// Allocates the buffers for `device` and computes its face
    /// couplings.
    pub(crate) fn new(device: &Mosfet2d) -> Self {
        let mesh = &device.mesh;
        let (nx, ny) = (mesh.nx(), mesh.ny());
        let mut coupling_x = vec![0.0; mesh.len()];
        let mut coupling_y = vec![0.0; mesh.len()];
        for j in 0..ny {
            for i in 0..nx {
                let idx = mesh.idx(i, j);
                if i + 1 < nx {
                    let (d, a) = (mesh.xs[i + 1] - mesh.xs[i], Mesh::dual_width(&mesh.ys, j));
                    coupling_x[idx] = coupling(&mesh.material, idx, mesh.idx(i + 1, j), d, a);
                }
                if j + 1 < ny {
                    let (d, a) = (mesh.ys[j + 1] - mesh.ys[j], Mesh::dual_width(&mesh.xs, i));
                    coupling_y[idx] = coupling(&mesh.material, idx, mesh.idx(i, j + 1), d, a);
                }
            }
        }
        let (order, silicon) = (BandOrder::new(mesh, 0), BandOrder::new(mesh, device.j_si0));
        Self {
            poisson: SymBandedMatrix::zeros(order.unknowns(), order.bandwidth()),
            factored: false,
            contacts_at: None,
            contact_psi: vec![0.0; mesh.len()],
            continuity: SymBandedMatrix::zeros(silicon.unknowns(), silicon.bandwidth()),
            rhs: vec![0.0; order.unknowns()],
            slotboom: vec![0.0; mesh.len()],
            coupling_x,
            coupling_y,
        }
    }

    /// Computes the Dirichlet potential of every contact node under the
    /// problem's bias, unless `contact_psi` already holds them.
    fn pin_contacts(&mut self, problem: &Problem<'_>) {
        if self.contacts_at == Some(*problem.bias) {
            return;
        }
        let device = problem.device;
        let (vt, ni) = thermals(device);
        for idx in 0..device.mesh.len() {
            if let Some(bc) = contact_potential(device, idx, problem.bias, vt, ni) {
                self.contact_psi[idx] = bc;
            }
        }
        self.contacts_at = Some(*problem.bias);
    }
}

/// How the Newton steps of a Poisson solve linearize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Linearization {
    /// Every step assembles and factors the Jacobian at the current
    /// potential.
    Newton,
    /// A step reuses the factors the [`Workspace`] holds and assembles
    /// the residual alone. It factors when the workspace holds none,
    /// and after a step whose update was not below
    /// [`CHORD_CONTRACTION`] of the one before it.
    Chord,
}

/// What a Poisson solve holds fixed: the device, the quasi-Fermi
/// potentials of its carrier terms and the contact voltages.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Problem<'a> {
    pub(crate) device: &'a Mosfet2d,
    pub(crate) phi_n: &'a [f64],
    pub(crate) phi_p: &'a [f64],
    pub(crate) bias: &'a Bias,
}

/// Solves the nonlinear Poisson equation in place to an update below
/// 1 nV. `phi_n`/`phi_p` are per-node quasi-Fermi potentials (ignored in
/// the oxide).
///
/// Returns the solve telemetry; `psi` holds the solution. Every solve
/// feeds the metrics registry: `tcad.poisson.solves`/`.diverged`
/// counters plus `tcad.poisson.iterations` and
/// `tcad.poisson.residual_log10` histograms.
pub fn solve(
    device: &Mosfet2d,
    psi: &mut [f64],
    phi_n: &[f64],
    phi_p: &[f64],
    bias: &Bias,
) -> PoissonSolve {
    solve_to(device, psi, phi_n, phi_p, bias, PSI_TOL)
}

/// [`solve`] with the stopping tolerance `tol` on the update
/// infinity-norm, volts; `converged` reports whether `tol` was met. It
/// feeds the same metrics. Each Newton step factors its own Jacobian.
pub fn solve_to(
    device: &Mosfet2d,
    psi: &mut [f64],
    phi_n: &[f64],
    phi_p: &[f64],
    bias: &Bias,
    tol: f64,
) -> PoissonSolve {
    let problem = Problem {
        device,
        phi_n,
        phi_p,
        bias,
    };
    solve_in(
        &mut Workspace::new(device),
        &problem,
        psi,
        tol,
        Linearization::Newton,
    )
}

/// [`solve_to`] in a [`Workspace`] built for the device, linearized as
/// `linearization` says. Besides the metrics of [`solve`], it counts
/// the banded factorizations of the Poisson Jacobian
/// (`tcad.poisson.factor`) and the chord steps that reused one
/// (`tcad.poisson.resolve`).
pub(crate) fn solve_in(
    ws: &mut Workspace,
    problem: &Problem<'_>,
    psi: &mut [f64],
    tol: f64,
    linearization: Linearization,
) -> PoissonSolve {
    let mut steps = Steps::default();
    let out = solve_inner(ws, problem, psi, tol, linearization, &mut steps);
    trace::add("tcad.poisson.solves", 1);
    trace::add("tcad.poisson.factor", steps.factor);
    trace::add("tcad.poisson.resolve", steps.resolve);
    if !out.converged {
        trace::add("tcad.poisson.diverged", 1);
    }
    trace::observe("tcad.poisson.iterations", out.iterations as f64);
    if out.max_update.is_finite() && out.max_update > 0.0 {
        trace::observe_with(
            "tcad.poisson.residual_log10",
            out.max_update.log10(),
            &trace::LOG10_BUCKETS,
        );
    }
    out
}

/// The linear solves of one Poisson solve: successful factorizations
/// of its Jacobian, and chord steps that reused the factors.
#[derive(Debug, Default)]
struct Steps {
    factor: u64,
    resolve: u64,
}

fn solve_inner(
    ws: &mut Workspace,
    problem: &Problem<'_>,
    psi: &mut [f64],
    tol: f64,
    linearization: Linearization,
    steps: &mut Steps,
) -> PoissonSolve {
    debug_assert_eq!(
        ws.coupling_x.len(),
        problem.device.mesh.len(),
        "workspace of another mesh"
    );
    let (mut last_update, mut contracted) = (f64::INFINITY, true);
    for iter in 1..=MAX_NEWTON {
        let refactor = linearization == Linearization::Newton || !ws.factored || !contracted;
        // A zero pivot ends the solve unconverged, as a stalled Newton
        // iteration does.
        let Ok(max_update) = newton_step(ws, problem, psi, refactor) else {
            return PoissonSolve {
                iterations: iter,
                max_update: last_update,
                converged: false,
            };
        };
        if refactor {
            steps.factor += 1;
        } else {
            steps.resolve += 1;
        }
        contracted = max_update < CHORD_CONTRACTION * last_update;
        last_update = max_update;
        if max_update < tol {
            return PoissonSolve {
                iterations: iter,
                max_update,
                converged: true,
            };
        }
    }
    PoissonSolve {
        iterations: MAX_NEWTON,
        max_update: last_update,
        converged: false,
    }
}

/// One step at `psi`: assembles the residual and, when `refactor` is
/// set, the Jacobian, which it factors in place of the workspace's
/// factors; otherwise it solves with those factors (a chord step).
/// Applies the clamped update to `psi` and returns its infinity-norm,
/// or the zero pivot that ended the factorization (the workspace then
/// holds no factors).
fn newton_step(
    ws: &mut Workspace,
    problem: &Problem<'_>,
    psi: &mut [f64],
    refactor: bool,
) -> Result<f64, ZeroPivotError> {
    let mesh = &problem.device.mesh;
    let order = BandOrder::new(mesh, 0);
    ws.pin_contacts(problem);
    if refactor {
        ws.factored = false;
        ws.poisson.reset(order.unknowns(), order.bandwidth());
    }
    assemble(ws, problem, psi, refactor);
    if refactor {
        ws.poisson.factor()?;
        ws.factored = true;
    }
    ws.poisson.solve(&mut ws.rhs);

    let rhs = &ws.rhs;
    let nodes = (0..mesh.ny()).flat_map(|j| (0..mesh.nx()).map(move |i| (i, j)));
    Ok(max_abs(nodes.map(|(i, j)| {
        let step = rhs[order.local(i, j)].clamp(-MAX_DPSI, MAX_DPSI);
        psi[mesh.idx(i, j)] += step;
        step
    })))
}

/// Writes the Newton right-hand side `−F(ψ)` into `ws.rhs` and, when
/// `jacobian` is set, the Jacobian `∂F/∂ψ` into the zeroed `ws.poisson`.
/// A contact row is the identity with `bc − ψ` on the right, and every
/// other row moves its contact neighbours' terms `c·(bc − ψ_c)` to the
/// right as well, which leaves the Jacobian symmetric. Only its upper
/// triangle is written: each face between two free nodes is stamped
/// from the row of the lower-numbered one.
fn assemble(ws: &mut Workspace, problem: &Problem<'_>, psi: &[f64], jacobian: bool) {
    let Problem {
        device,
        phi_n,
        phi_p,
        ..
    } = *problem;
    let mesh = &device.mesh;
    let Workspace {
        poisson,
        rhs,
        contact_psi,
        coupling_x,
        coupling_y,
        ..
    } = ws;
    let mut jac = jacobian.then_some(poisson);
    let (vt, ni) = thermals(device);
    let (nx, ny) = (mesh.nx(), mesh.ny());
    let free = |idx: usize| mesh.boundary[idx] == Boundary::Interior;
    // Every node is an unknown, numbered along the shorter (depth) axis.
    let order = BandOrder::new(mesh, 0);
    for j in 0..ny {
        for i in 0..nx {
            let idx = mesh.idx(i, j);
            let row = order.local(i, j);
            if !free(idx) {
                // Dirichlet row: δψ = bc − ψ.
                if let Some(jac) = &mut jac {
                    jac.set(row, row, 1.0);
                }
                rhs[row] = contact_psi[idx] - psi[idx];
                continue;
            }
            let mut f = 0.0;
            let mut diag = 0.0;
            let mut fold = 0.0;

            let mut face = |nb: (usize, usize), c: f64| {
                let nb_idx = mesh.idx(nb.0, nb.1);
                f += c * (psi[nb_idx] - psi[idx]);
                diag -= c;
                if !free(nb_idx) {
                    fold += c * (contact_psi[nb_idx] - psi[nb_idx]);
                } else if let Some(jac) = &mut jac {
                    let col = order.local(nb.0, nb.1);
                    if col > row {
                        jac.set(row, col, c);
                    }
                }
            };
            if i > 0 {
                face((i - 1, j), coupling_x[mesh.idx(i - 1, j)]);
            }
            if i + 1 < nx {
                face((i + 1, j), coupling_x[idx]);
            }
            if j > 0 {
                face((i, j - 1), coupling_y[mesh.idx(i, j - 1)]);
            }
            if j + 1 < ny {
                face((i, j + 1), coupling_y[idx]);
            }

            if mesh.material[idx] == Material::Silicon {
                let vol = Mesh::dual_width(&mesh.xs, i) * Mesh::dual_width(&mesh.ys, j);
                let n = ni * ((psi[idx] - phi_n[idx]) / vt).min(60.0).exp();
                let p = ni * ((phi_p[idx] - psi[idx]) / vt).min(60.0).exp();
                f += Q * vol * (device.doping[idx] + p - n);
                diag -= Q * vol * (n + p) / vt;
            }

            if let Some(jac) = &mut jac {
                jac.set(row, row, diag);
            }
            rhs[row] = -f - fold;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::tests::BandedLu;
    use crate::continuity::{bernoulli, drain_current, equilibrium_electrons, solve_electrons};
    use crate::device::MeshDensity;
    use subvt_physics::device::DeviceParams;

    fn solved_equilibrium() -> (Mosfet2d, Vec<f64>) {
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let bias = Bias::default();
        let mut psi = initial_guess(&dev, &bias);
        let phi = vec![0.0; dev.len()];
        let out = solve(&dev, &mut psi, &phi, &phi, &bias);
        assert!(out.converged, "equilibrium Poisson must converge: {out:?}");
        (dev, psi)
    }

    /// The golden-bits bias of `dev`: `V_g = 0.8 V`, `V_d = 0.6 V`, with
    /// an electron quasi-Fermi potential that ramps from source to
    /// drain.
    fn biased(dev: &Mosfet2d) -> (Bias, Vec<f64>) {
        let bias = Bias {
            v_gate: 0.8,
            v_drain: 0.6,
            ..Bias::default()
        };
        let mesh = &dev.mesh;
        let x_max = mesh.xs[mesh.nx() - 1];
        let mut phi_n = vec![0.0; dev.len()];
        for j in dev.j_si0..mesh.ny() {
            for i in 0..mesh.nx() {
                phi_n[mesh.idx(i, j)] = bias.v_drain * mesh.xs[i] / x_max;
            }
        }
        (bias, phi_n)
    }

    /// A Newton step of solver revision v6, the reference of
    /// [`the_symmetric_solves_agree_with_the_lu_path_on_the_golden_input`]:
    /// the Jacobian keeps its Dirichlet columns and is solved by the
    /// banded LU. Returns the update's infinity-norm.
    fn lu_newton_step(problem: &Problem<'_>, psi: &mut [f64]) -> f64 {
        let Problem {
            device,
            phi_n,
            phi_p,
            bias,
        } = *problem;
        let ws = Workspace::new(device);
        let mesh = &device.mesh;
        let (vt, ni) = thermals(device);
        let (nx, ny) = (mesh.nx(), mesh.ny());
        let order = BandOrder::new(mesh, 0);
        let mut jac = BandedLu::zeros(order.unknowns(), order.bandwidth());
        let mut rhs = vec![0.0; order.unknowns()];
        for j in 0..ny {
            for i in 0..nx {
                let idx = mesh.idx(i, j);
                let row = order.local(i, j);
                if let Some(bc) = contact_potential(device, idx, bias, vt, ni) {
                    jac.set(row, row, 1.0);
                    rhs[row] = bc - psi[idx];
                    continue;
                }
                let (mut f, mut diag) = (0.0, 0.0);
                let mut face = |nb: (usize, usize), c: f64| {
                    f += c * (psi[mesh.idx(nb.0, nb.1)] - psi[idx]);
                    diag -= c;
                    jac.set(row, order.local(nb.0, nb.1), c);
                };
                if i > 0 {
                    face((i - 1, j), ws.coupling_x[mesh.idx(i - 1, j)]);
                }
                if i + 1 < nx {
                    face((i + 1, j), ws.coupling_x[idx]);
                }
                if j > 0 {
                    face((i, j - 1), ws.coupling_y[mesh.idx(i, j - 1)]);
                }
                if j + 1 < ny {
                    face((i, j + 1), ws.coupling_y[idx]);
                }
                if mesh.material[idx] == Material::Silicon {
                    let vol = Mesh::dual_width(&mesh.xs, i) * Mesh::dual_width(&mesh.ys, j);
                    let n = ni * ((psi[idx] - phi_n[idx]) / vt).min(60.0).exp();
                    let p = ni * ((phi_p[idx] - psi[idx]) / vt).min(60.0).exp();
                    f += Q * vol * (device.doping[idx] + p - n);
                    diag -= Q * vol * (n + p) / vt;
                }
                jac.set(row, row, diag);
                rhs[row] = -f;
            }
        }
        jac.factor().expect("nonzero pivots");
        jac.solve(&mut rhs);
        let nodes = (0..ny).flat_map(|j| (0..nx).map(move |i| (i, j)));
        max_abs(nodes.map(|(i, j)| {
            let step = rhs[order.local(i, j)].clamp(-MAX_DPSI, MAX_DPSI);
            psi[mesh.idx(i, j)] += step;
            step
        }))
    }

    /// The Newton iterations of a v6 solve to `tol`.
    fn lu_solve_to(problem: &Problem<'_>, psi: &mut [f64], tol: f64) -> usize {
        (1..=MAX_NEWTON)
            .find(|_| lu_newton_step(problem, psi) < tol)
            .expect("converged")
    }

    /// The v6 continuity solve: the Scharfetter–Gummel system in the
    /// electron density, each face's Bernoulli pair `c·B(±Δψ/v_T)`
    /// stamped into a general band, contacts pinned at the equilibrium
    /// density, solved by the banded LU.
    fn lu_electrons(device: &Mosfet2d, psi: &[f64]) -> Vec<f64> {
        let mesh = &device.mesh;
        let (vt, ni) = thermals(device);
        let (nx, ny, j0) = (mesh.nx(), mesh.ny(), device.j_si0);
        let order = BandOrder::new(mesh, j0);
        let mut mat = BandedLu::zeros(order.unknowns(), order.bandwidth());
        let mut rhs = vec![0.0; order.unknowns()];
        let contact = |idx: usize| {
            matches!(
                mesh.boundary[idx],
                Boundary::Source | Boundary::Drain | Boundary::Substrate
            )
        };
        for j in j0..ny {
            for i in 0..nx {
                let idx = mesh.idx(i, j);
                if contact(idx) {
                    let row = order.local(i, j);
                    mat.set(row, row, 1.0);
                    rhs[row] = equilibrium_electrons(device.doping[idx], ni);
                }
            }
        }
        let mut face = |a: (usize, usize), b: (usize, usize), d: f64, w: f64| {
            let (ia, ib) = (mesh.idx(a.0, a.1), mesh.idx(b.0, b.1));
            let (ra, rb) = (order.local(a.0, a.1), order.local(b.0, b.1));
            let mu = 0.5 * (device.mobility[ia] + device.mobility[ib]);
            let c = Q * mu * vt * w / d;
            let du = (psi[ib] - psi[ia]) / vt;
            let (forward, backward) = (c * bernoulli(du), c * bernoulli(-du));
            if !contact(ia) {
                mat.add(ra, rb, forward);
                mat.add(ra, ra, -backward);
            }
            if !contact(ib) {
                mat.add(rb, ra, backward);
                mat.add(rb, rb, -forward);
            }
        };
        for j in j0..ny {
            let wy = Mesh::dual_width(&mesh.ys, j);
            for i in 0..nx - 1 {
                face((i, j), (i + 1, j), mesh.xs[i + 1] - mesh.xs[i], wy);
            }
        }
        for j in j0..ny - 1 {
            for i in 0..nx {
                let wx = Mesh::dual_width(&mesh.xs, i);
                face((i, j), (i, j + 1), mesh.ys[j + 1] - mesh.ys[j], wx);
            }
        }
        mat.factor().expect("nonzero pivots");
        mat.solve(&mut rhs);
        let mut n = vec![0.0; device.len()];
        for j in j0..ny {
            for i in 0..nx {
                n[mesh.idx(i, j)] = rhs[order.local(i, j)].max(1.0e-12 * ni);
            }
        }
        n
    }

    /// The v6 drain current: the Bernoulli-pair flux in the electron
    /// density from the drain's neighbours into its nodes.
    fn lu_drain_current(device: &Mosfet2d, psi: &[f64], n: &[f64]) -> f64 {
        let mesh = &device.mesh;
        let (vt, _) = thermals(device);
        let (nx, ny) = (mesh.nx(), mesh.ny());
        let mut total = 0.0;
        for j in device.j_si0..ny {
            for i in 0..nx {
                let idx = mesh.idx(i, j);
                if mesh.boundary[idx] != Boundary::Drain {
                    continue;
                }
                let wx = Mesh::dual_width(&mesh.xs, i);
                let wy = Mesh::dual_width(&mesh.ys, j);
                let flux = |nb: (usize, usize), d: f64, a: f64| {
                    let nb_idx = mesh.idx(nb.0, nb.1);
                    if mesh.boundary[nb_idx] == Boundary::Drain {
                        return 0.0;
                    }
                    let mu = 0.5 * (device.mobility[idx] + device.mobility[nb_idx]);
                    let c = Q * mu * vt * a / d;
                    let du = (psi[nb_idx] - psi[idx]) / vt;
                    c * (n[nb_idx] * bernoulli(du) - n[idx] * bernoulli(-du))
                };
                if i > 0 {
                    total += flux((i - 1, j), mesh.xs[i] - mesh.xs[i - 1], wy);
                }
                if i + 1 < nx {
                    total += flux((i + 1, j), mesh.xs[i + 1] - mesh.xs[i], wy);
                }
                if j > device.j_si0 {
                    total += flux((i, j - 1), mesh.ys[j] - mesh.ys[j - 1], wx);
                }
                if j + 1 < ny {
                    total += flux((i, j + 1), mesh.ys[j + 1] - mesh.ys[j], wx);
                }
            }
        }
        total.abs() * 1.0e-4
    }

    /// The largest relative difference of the nonzero entries of `want`.
    fn worst_relative(got: &[f64], want: &[f64]) -> f64 {
        max_abs(
            got.iter()
                .zip(want)
                .filter(|(_, w)| **w != 0.0)
                .map(|(g, w)| (g - w) / w),
        )
    }

    #[test]
    fn the_symmetric_solves_agree_with_the_lu_path_on_the_golden_input() {
        // `tests/golden_bits.rs`'s solves, against solver revision v6's
        // banded LU, Dirichlet columns and electron-density continuity.
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let (bias, phi_n) = biased(&dev);
        let phi_p = vec![0.0; dev.len()];
        let problem = Problem {
            device: &dev,
            phi_n: &phi_n,
            phi_p: &phi_p,
            bias: &bias,
        };
        let (mut psi, mut psi_lu) = (initial_guess(&dev, &bias), initial_guess(&dev, &bias));
        for (tol, iterations) in [(1.0e-2, 12), (PSI_TOL, 3)] {
            let out = solve_to(&dev, &mut psi, &phi_n, &phi_p, &bias, tol);
            assert!(out.converged, "{out:?}");
            assert_eq!(out.iterations, iterations, "tolerance {tol}");
            assert_eq!(
                lu_solve_to(&problem, &mut psi_lu, tol),
                iterations,
                "tolerance {tol}"
            );
            let gap = worst_relative(&psi, &psi_lu);
            assert!(gap <= 1.0e-13, "tolerance {tol}: ψ differs by {gap:e}");
        }

        let n = solve_electrons(&dev, &psi, &bias).unwrap();
        let n_lu = lu_electrons(&dev, &psi_lu);
        let gap = worst_relative(&n, &n_lu);
        assert!(gap <= 1.0e-10, "n differs by {gap:e}");

        let (i_d, i_lu) = (
            drain_current(&dev, &psi, &n),
            lu_drain_current(&dev, &psi_lu, &n_lu),
        );
        assert!(
            (i_d / i_lu - 1.0).abs() <= 1.0e-11,
            "I_D {i_d:e} vs {i_lu:e}"
        );
    }

    #[test]
    fn a_chord_step_at_the_factored_state_is_the_newton_step() {
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let (bias, phi_n) = biased(&dev);
        let phi_p = vec![0.0; dev.len()];
        let problem = Problem {
            device: &dev,
            phi_n: &phi_n,
            phi_p: &phi_p,
            bias: &bias,
        };
        let psi = initial_guess(&dev, &bias);
        let mut ws = Workspace::new(&dev);
        let mut newton = psi.clone();
        let newton_update = newton_step(&mut ws, &problem, &mut newton, true).unwrap();
        // The factors of the Jacobian at `psi`, reused at `psi`.
        let mut chord = psi;
        let chord_update = newton_step(&mut ws, &problem, &mut chord, false).unwrap();
        assert_eq!(chord_update.to_bits(), newton_update.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&chord), bits(&newton));
    }

    #[test]
    fn a_chord_solve_on_stale_factors_refactors_until_it_contracts() {
        // Factors of the zero-bias equilibrium, reused for a biased
        // solve to 1 nV: the steps the stale Jacobian cannot halve
        // refactor, and the solve lands where plain Newton does.
        let (dev, psi_eq) = solved_equilibrium();
        let zeros = vec![0.0; dev.len()];
        let mut ws = Workspace::new(&dev);
        let equilibrium = Problem {
            device: &dev,
            phi_n: &zeros,
            phi_p: &zeros,
            bias: &Bias::default(),
        };
        assert!(newton_step(&mut ws, &equilibrium, &mut psi_eq.clone(), true).unwrap() < PSI_TOL);
        let (bias, phi_n) = biased(&dev);
        let biased = Problem {
            phi_n: &phi_n,
            bias: &bias,
            ..equilibrium
        };
        let mut chord = psi_eq.clone();
        let mut steps = Steps::default();
        let out = solve_inner(
            &mut ws,
            &biased,
            &mut chord,
            PSI_TOL,
            Linearization::Chord,
            &mut steps,
        );
        assert!(out.converged, "{out:?} {steps:?}");
        assert!(steps.factor >= 1 && steps.resolve >= 1, "{steps:?}");
        let mut newton = psi_eq;
        assert!(solve(&dev, &mut newton, &phi_n, &zeros, &bias).converged);
        let gap = max_abs(chord.iter().zip(&newton).map(|(a, b)| a - b));
        assert!(gap < 1.0e-8, "chord and Newton solutions differ by {gap} V");
    }

    #[test]
    fn equilibrium_converges() {
        let _ = solved_equilibrium();
    }

    #[test]
    fn a_single_nan_in_the_state_is_not_a_converged_solve() {
        let (dev, mut psi) = solved_equilibrium();
        let phi = vec![0.0; dev.len()];
        // One bulk silicon node, away from every contact.
        psi[dev.mesh.idx(dev.mesh.nx() / 2, dev.mesh.ny() - 2)] = f64::NAN;
        let out = solve(&dev, &mut psi, &phi, &phi, &Bias::default());
        assert!(!out.converged, "{out:?}");
    }

    #[test]
    fn equilibrium_potential_landmarks() {
        let (dev, psi) = solved_equilibrium();
        let (vt, ni) = thermals(&dev);
        // n+ source region: ψ ≈ +v_T·ln(1e20/n_i) ≈ 0.595 V.
        let idx_src = dev.mesh.idx(0, dev.j_si0);
        assert!(
            (psi[idx_src] - vt * (1.0e20 / ni).ln()).abs() < 0.02,
            "src {}",
            psi[idx_src]
        );
        // Deep p-substrate: ψ ≈ −v_T·ln(N_sub/n_i) < −0.4 V.
        let idx_sub = dev.mesh.idx(dev.mesh.nx() / 2, dev.mesh.ny() - 1);
        assert!(psi[idx_sub] < -0.40, "substrate {}", psi[idx_sub]);
    }

    #[test]
    fn equilibrium_charge_neutral_in_bulk() {
        let (dev, psi) = solved_equilibrium();
        let (vt, ni) = thermals(&dev);
        // A deep bulk node away from junctions should satisfy p ≈ N_a.
        let idx = dev.mesh.idx(dev.mesh.nx() / 2, dev.mesh.ny() - 2);
        let p = ni * (-psi[idx] / vt).exp();
        let na = -dev.doping[idx];
        assert!(na > 0.0);
        assert!((p / na - 1.0).abs() < 0.05, "p = {p:e}, N_a = {na:e}");
    }

    #[test]
    fn gate_bias_bends_surface_potential() {
        let (dev, psi0) = solved_equilibrium();
        let bias = Bias {
            v_gate: 0.6,
            ..Bias::default()
        };
        let mut psi = psi0.clone();
        let phi = vec![0.0; dev.len()];
        let out = solve(&dev, &mut psi, &phi, &phi, &bias);
        assert!(out.converged);
        // Mid-channel surface potential rises with gate bias.
        let mid_x = 0.5 * (dev.gate_span.0 + dev.gate_span.1);
        let i_mid = (0..dev.mesh.nx())
            .min_by(|&a, &b| {
                (dev.mesh.xs[a] - mid_x)
                    .abs()
                    .partial_cmp(&(dev.mesh.xs[b] - mid_x).abs())
                    .unwrap()
            })
            .unwrap();
        let idx = dev.mesh.idx(i_mid, dev.j_si0);
        assert!(
            psi[idx] > psi0[idx] + 0.2,
            "surface potential must follow the gate: {} vs {}",
            psi[idx],
            psi0[idx]
        );
    }

    #[test]
    fn neutral_potential_signs() {
        let (vt, ni) = (0.02585, 1.0e10);
        assert!(neutral_potential(1.0e20, vt, ni) > 0.55);
        assert!(neutral_potential(-1.0e18, vt, ni) < -0.4);
        assert_eq!(neutral_potential(0.0, vt, ni), 0.0);
    }
}
