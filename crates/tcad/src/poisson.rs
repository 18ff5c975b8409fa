//! Nonlinear Poisson solve: finite-volume discretization with Boltzmann
//! carriers and damped Newton iteration.
//!
//! Unknowns are node potentials `ψ` referenced to the intrinsic Fermi
//! level. Silicon nodes carry the charge
//! `ρ = q·(p − n + N_net)` with `n = n_i·e^{(ψ−φ_n)/v_T}`,
//! `p = n_i·e^{(φ_p−ψ)/v_T}`; oxide nodes are charge-free. Contacts are
//! Dirichlet; every other boundary is a natural Neumann (reflecting)
//! boundary of the finite-volume scheme. Each Newton step solves its
//! Jacobian directly with the banded LU, nodes numbered along the
//! mesh's shorter axis.
//!
//! [`solve`] iterates to an update below 1 nV. The Gummel loop stops
//! each of its Poisson solves at a loose tolerance instead (an inexact
//! inner solve): it relinearizes after every continuity solve, and its
//! own 10 nV test on the potential change decides convergence, so
//! resolving each linearization to 1 nV only repeats banded LU solves.

use subvt_engine::trace;
use subvt_physics::math::max_abs;
use subvt_units::consts::{EPS_OX, EPS_SI, Q};

use crate::banded::BandedMatrix;
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
/// allocates. It holds one band buffer sized for the Poisson Jacobian
/// (the smaller continuity system reuses it), the right-hand side that
/// the banded LU overwrites with the solution, and the Poisson face
/// couplings, which depend on the device alone.
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    pub(crate) matrix: BandedMatrix,
    pub(crate) rhs: Vec<f64>,
    /// Coupling of the face from node `(i, j)` to `(i + 1, j)`, stored
    /// at `mesh.idx(i, j)`.
    coupling_x: Vec<f64>,
    /// Coupling of the face from node `(i, j)` to `(i, j + 1)`, stored
    /// at `mesh.idx(i, j)`.
    coupling_y: Vec<f64>,
}

/// Workspaces compare by the device constants they hold: the scratch
/// buffers carry nothing from one solve to the next.
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
        let order = BandOrder::new(mesh, 0);
        Self {
            matrix: BandedMatrix::zeros(order.unknowns(), order.bandwidth()),
            rhs: vec![0.0; order.unknowns()],
            coupling_x,
            coupling_y,
        }
    }
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
/// feeds the same metrics.
pub fn solve_to(
    device: &Mosfet2d,
    psi: &mut [f64],
    phi_n: &[f64],
    phi_p: &[f64],
    bias: &Bias,
    tol: f64,
) -> PoissonSolve {
    solve_in(
        &mut Workspace::new(device),
        device,
        psi,
        phi_n,
        phi_p,
        bias,
        tol,
    )
}

/// [`solve_to`] in a [`Workspace`] built for `device`: the Newton
/// iterations assemble and factor their Jacobians in its buffers.
pub(crate) fn solve_in(
    ws: &mut Workspace,
    device: &Mosfet2d,
    psi: &mut [f64],
    phi_n: &[f64],
    phi_p: &[f64],
    bias: &Bias,
    tol: f64,
) -> PoissonSolve {
    let out = solve_inner(ws, device, psi, phi_n, phi_p, bias, tol);
    trace::add("tcad.poisson.solves", 1);
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

fn solve_inner(
    ws: &mut Workspace,
    device: &Mosfet2d,
    psi: &mut [f64],
    phi_n: &[f64],
    phi_p: &[f64],
    bias: &Bias,
    tol: f64,
) -> PoissonSolve {
    let mesh = &device.mesh;
    debug_assert_eq!(ws.coupling_x.len(), mesh.len(), "workspace of another mesh");
    let Workspace {
        matrix: jac,
        rhs,
        coupling_x,
        coupling_y,
    } = ws;
    let (vt, ni) = thermals(device);
    let nx = mesh.nx();
    let ny = mesh.ny();
    // Every node is an unknown, numbered along the shorter (depth) axis.
    let order = BandOrder::new(mesh, 0);

    let mut last_update = f64::INFINITY;
    for iter in 1..=MAX_NEWTON {
        jac.reset(order.unknowns(), order.bandwidth());

        for j in 0..ny {
            for i in 0..nx {
                let idx = mesh.idx(i, j);
                let row = order.local(i, j);
                if let Some(bc) = contact_potential(device, idx, bias, vt, ni) {
                    // Dirichlet row: δψ = bc − ψ.
                    jac.set(row, row, 1.0);
                    rhs[row] = bc - psi[idx];
                    continue;
                }
                let mut f = 0.0;
                let mut diag = 0.0;

                let mut face = |nb: (usize, usize), c: f64| {
                    let nb_idx = mesh.idx(nb.0, nb.1);
                    f += c * (psi[nb_idx] - psi[idx]);
                    diag -= c;
                    jac.set(row, order.local(nb.0, nb.1), c);
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

                jac.set(row, row, diag);
                rhs[row] = -f;
            }
        }

        // A zero pivot ends the solve unconverged, as a stalled Newton
        // iteration does.
        if jac.solve_in_place(rhs).is_err() {
            return PoissonSolve {
                iterations: iter,
                max_update: last_update,
                converged: false,
            };
        }

        let nodes = (0..ny).flat_map(|j| (0..nx).map(move |i| (i, j)));
        let max_update = max_abs(nodes.map(|(i, j)| {
            let step = rhs[order.local(i, j)].clamp(-MAX_DPSI, MAX_DPSI);
            psi[mesh.idx(i, j)] += step;
            step
        }));
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

#[cfg(test)]
mod tests {
    use super::*;
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
