//! Scharfetter–Gummel electron continuity: given a potential field, the
//! steady-state electron density solves a linear M-matrix system, solved
//! directly with the banded LDLᵀ (robust against the 18-decade dynamic
//! range of carrier densities).
//!
//! The system is assembled in the Slotboom variable
//! `u = n·e^{−ψ/v_T} = n_i·e^{−φ_n/v_T}`, in which it is symmetric. The
//! Scharfetter–Gummel flux from node `b` into its neighbour `a` is
//! `c·(n_b·B(Δψ/v_T) − n_a·B(−Δψ/v_T))`, `Δψ = ψ_b − ψ_a`, and since
//! `B(−x) = B(x)·e^x` it is `s·(u_b − u_a)` with the one face weight
//! `s = c·B(Δψ/v_T)·e^{ψ_b/v_T} = c·B(−Δψ/v_T)·e^{ψ_a/v_T}`. A contact
//! pins `u = n_i·e^{−V/v_T}` at its applied voltage `V` (the equilibrium
//! density at the contact's built-in potential), and its column is
//! folded into the right-hand side of its neighbours. The density is
//! recovered as `n = u·e^{ψ/v_T}`. Terminal currents
//! ([`contact_current`]) sum the same face weights, so they satisfy the
//! discrete equations the solve satisfied: the currents into all
//! contacts sum to zero, and at zero bias each vanishes.
//!
//! The solver is unipolar (electrons only): hole current is negligible
//! for the NFET terminal characteristics studied here, and holes stay in
//! quasi-equilibrium with the grounded substrate (`φ_p = 0`). This is
//! the standard approximation for MOSFET subthreshold analysis.

use subvt_engine::trace;
use subvt_units::consts::Q;

use crate::device::Mosfet2d;
use crate::gummel::TcadError;
use crate::mesh::{BandOrder, Boundary, Mesh};
use crate::poisson::{thermals, Bias, Workspace};

/// Bernoulli function `B(x) = x/(e^x − 1)`, series-expanded near zero.
///
/// # Examples
///
/// ```
/// use subvt_tcad::continuity::bernoulli;
/// assert!((bernoulli(0.0) - 1.0).abs() < 1e-12);
/// assert!((bernoulli(1e-8) - 1.0).abs() < 1e-7);
/// // Identity: B(-x) = B(x)·e^x.
/// let x = 2.3;
/// assert!((bernoulli(-x) - bernoulli(x) * x.exp()).abs() < 1e-12);
/// ```
pub fn bernoulli(x: f64) -> f64 {
    if x.abs() < 1e-5 {
        // B(x) ≈ 1 − x/2 + x²/12.
        1.0 - x / 2.0 + x * x / 12.0
    } else if x > 500.0 {
        // e^x overflows; B → x·e^{−x} → 0.
        0.0
    } else if x < -500.0 {
        -x
    } else {
        x / (x.exp() - 1.0)
    }
}

/// Equilibrium majority electron density for signed net doping `n_net`.
///
/// Evaluated cancellation-free: for p-type material the direct quadratic
/// formula subtracts nearly equal 1e18-scale numbers to produce a
/// 1e2-scale answer, so the electron density is computed from the hole
/// density via `n·p = n_i²` instead.
pub fn equilibrium_electrons(n_net: f64, ni: f64) -> f64 {
    let root = (n_net * n_net + 4.0 * ni * ni).sqrt();
    if n_net >= 0.0 {
        0.5 * (n_net + root)
    } else {
        let p = 0.5 * (-n_net + root);
        ni * ni / p
    }
}

/// Solves the electron continuity equation for the density field `n`
/// (cm⁻³, silicon nodes; oxide entries left at zero). The silicon nodes
/// are numbered along the mesh's shorter axis ([`BandOrder`]), so the
/// banded LDLᵀ's half-bandwidth is the silicon depth.
///
/// # Errors
///
/// Returns [`TcadError::ContinuityZeroPivot`] if the factorization meets
/// a zero pivot (not expected for a connected silicon region with at
/// least one contact).
pub fn solve_electrons(device: &Mosfet2d, psi: &[f64], bias: &Bias) -> Result<Vec<f64>, TcadError> {
    let mut n = vec![0.0; device.len()];
    solve_electrons_in(&mut Workspace::new(device), device, psi, bias, &mut n)?;
    Ok(n)
}

/// Applied voltage of a continuity contact, `None` off the contacts.
/// The gate is no contact of the silicon: its oxide carries no current.
fn contact_voltage(boundary: Boundary, bias: &Bias) -> Option<f64> {
    match boundary {
        Boundary::Source => Some(bias.v_source),
        Boundary::Drain => Some(bias.v_drain),
        Boundary::Substrate => Some(bias.v_substrate),
        Boundary::Gate | Boundary::Interior => None,
    }
}

/// `c·B((ψ_b − ψ_a)/v_T)` for the face from node `a` to its right or
/// upper neighbour `b`, at spacing `d` and transverse dual width `w`:
/// times `e^{ψ_b/v_T}`, the face's Slotboom weight. The solve and
/// [`contact_current`] both weigh a face through here, in this one
/// orientation, so they see the same bits.
fn face_coupling(
    device: &Mosfet2d,
    psi: &[f64],
    vt: f64,
    a: usize,
    b: usize,
    d: f64,
    w: f64,
) -> f64 {
    let mu = 0.5 * (device.mobility[a] + device.mobility[b]);
    let c = Q * mu * vt * w / d;
    c * bernoulli((psi[b] - psi[a]) / vt)
}

/// [`solve_electrons`] in a [`Workspace`] built for `device`, writing
/// the silicon entries of `n` in place (its oxide entries are left as
/// they are). On an error `n` is unchanged. Counts every call in
/// `tcad.continuity.solves`.
///
/// Each face's weight is evaluated once and stamped into the rows of
/// both its nodes (a contact node's column goes to the other node's
/// right-hand side instead). The x-faces go first, then the y-faces,
/// so every row accumulates its left, right, upper and lower face in
/// that order.
///
/// # Errors
///
/// As [`solve_electrons`].
pub(crate) fn solve_electrons_in(
    ws: &mut Workspace,
    device: &Mosfet2d,
    psi: &[f64],
    bias: &Bias,
    n: &mut [f64],
) -> Result<(), TcadError> {
    trace::add("tcad.continuity.solves", 1);
    let mesh = &device.mesh;
    let (vt, ni) = thermals(device);
    let nx = mesh.nx();
    let ny = mesh.ny();
    let j0 = device.j_si0;
    let order = BandOrder::new(mesh, j0);
    let Workspace {
        continuity: mat,
        rhs,
        slotboom,
        ..
    } = ws;
    let rhs = &mut rhs[..order.unknowns()];
    mat.reset(order.unknowns(), order.bandwidth());

    for j in j0..ny {
        for i in 0..nx {
            let idx = mesh.idx(i, j);
            let row = order.local(i, j);
            slotboom[idx] = (psi[idx] / vt).exp();
            rhs[row] = match contact_voltage(mesh.boundary[idx], bias) {
                Some(v) => {
                    mat.set(row, row, 1.0);
                    ni * (-v / vt).exp()
                }
                None => 0.0,
            };
        }
    }
    let contact = |idx: usize| contact_voltage(mesh.boundary[idx], bias).is_some();
    // The flux into `a` is s·(u_b − u_a) and into `b` its negative. A
    // contact row keeps its pinned `u` on the right-hand side, which
    // the other node's row reads to fold the contact's column.
    let mut face = |a: (usize, usize), b: (usize, usize), d: f64, w: f64| {
        let (ia, ib) = (mesh.idx(a.0, a.1), mesh.idx(b.0, b.1));
        let (ra, rb) = (order.local(a.0, a.1), order.local(b.0, b.1));
        let s = face_coupling(device, psi, vt, ia, ib, d, w) * slotboom[ib];
        match (contact(ia), contact(ib)) {
            (false, false) => {
                mat.add(ra, rb, s);
                mat.add(ra, ra, -s);
                mat.add(rb, rb, -s);
            }
            (false, true) => {
                mat.add(ra, ra, -s);
                rhs[ra] -= s * rhs[rb];
            }
            (true, false) => {
                mat.add(rb, rb, -s);
                rhs[rb] -= s * rhs[ra];
            }
            (true, true) => {}
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

    mat.factor().map_err(|e| TcadError::ContinuityZeroPivot {
        bias: *bias,
        row: e.row,
    })?;
    mat.solve(rhs);

    for j in j0..ny {
        for i in 0..nx {
            // Direct elimination can leave tiny negative values in
            // near-depleted cells; floor them at a physical minimum.
            let idx = mesh.idx(i, j);
            n[idx] = (rhs[order.local(i, j)] * slotboom[idx]).max(1.0e-12 * ni);
        }
    }
    Ok(())
}

/// Signed terminal electron current into the nodes of `contact`, amps
/// per micron of gate width: the net Scharfetter–Gummel flux
/// `Σ s·(u_nb − u_node)` over the faces from each of its nodes to a
/// neighbour off the contact, with the face weights of the solve and
/// `u = n·e^{−ψ/v_T}`. The currents into all contacts of a converged
/// state sum to zero. The gate, behind the oxide, carries none.
pub fn contact_current(device: &Mosfet2d, psi: &[f64], n: &[f64], contact: Boundary) -> f64 {
    let mesh = &device.mesh;
    let (vt, _) = thermals(device);
    let nx = mesh.nx();
    let ny = mesh.ny();
    let slotboom = |idx: usize| (psi[idx] / vt).exp();
    let mut total = 0.0;

    for j in device.j_si0..ny {
        for i in 0..nx {
            let idx = mesh.idx(i, j);
            if mesh.boundary[idx] != contact {
                continue;
            }
            let e_node = slotboom(idx);
            let u_node = n[idx] / e_node;
            let wx = Mesh::dual_width(&mesh.xs, i);
            let wy = Mesh::dual_width(&mesh.ys, j);
            // `nb` lies `before` (left of or below) the node or after
            // it; the face weight is taken in the solve's orientation.
            let flux = |nb: (usize, usize), before: bool, d: f64, w: f64| {
                let nb_idx = mesh.idx(nb.0, nb.1);
                if mesh.boundary[nb_idx] == contact {
                    return 0.0;
                }
                let e_nb = slotboom(nb_idx);
                let s = if before {
                    face_coupling(device, psi, vt, nb_idx, idx, d, w) * e_node
                } else {
                    face_coupling(device, psi, vt, idx, nb_idx, d, w) * e_nb
                };
                s * (n[nb_idx] / e_nb - u_node)
            };
            if i > 0 {
                total += flux((i - 1, j), true, mesh.xs[i] - mesh.xs[i - 1], wy);
            }
            if i + 1 < nx {
                total += flux((i + 1, j), false, mesh.xs[i + 1] - mesh.xs[i], wy);
            }
            if j > device.j_si0 {
                total += flux((i, j - 1), true, mesh.ys[j] - mesh.ys[j - 1], wx);
            }
            if j + 1 < ny {
                total += flux((i, j + 1), false, mesh.ys[j + 1] - mesh.ys[j], wx);
            }
        }
    }
    // Currents are per cm of device depth; report per µm of gate width.
    total * 1.0e-4
}

/// Terminal electron current at the drain contact, amps per micron of
/// gate width: the magnitude of [`contact_current`] into the drain.
pub fn drain_current(device: &Mosfet2d, psi: &[f64], n: &[f64]) -> f64 {
    contact_current(device, psi, n, Boundary::Drain).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MeshDensity, Mosfet2d};
    use crate::gummel::DeviceSimulator;
    use crate::poisson::{initial_guess, solve};
    use subvt_engine::rng::SplitMix64;
    use subvt_physics::device::DeviceParams;

    #[test]
    fn bernoulli_identity_and_limits() {
        for x in [-30.0, -2.0, -1e-7, 0.0, 1e-7, 2.0, 30.0] {
            let b = bernoulli(x);
            assert!(b >= 0.0, "B({x}) = {b}");
            if x != 0.0 {
                assert!((bernoulli(-x) - b * x.exp()).abs() <= 1e-12 * b.max(1.0));
            }
        }
        assert!((bernoulli(700.0)).abs() < 1e-200);
        assert!((bernoulli(-700.0) - 700.0).abs() < 1e-9);
    }

    #[test]
    fn equilibrium_density_limits() {
        let ni = 1.0e10;
        // Strong n-type: n ≈ N_d.
        assert!((equilibrium_electrons(1.0e20, ni) / 1.0e20 - 1.0).abs() < 1e-9);
        // Strong p-type: n ≈ n_i²/N_a.
        let n = equilibrium_electrons(-1.0e18, ni);
        assert!((n / (ni * ni / 1.0e18) - 1.0).abs() < 1e-6);
        // Intrinsic: n = n_i.
        assert!((equilibrium_electrons(0.0, ni) - ni).abs() < 1.0);
    }

    #[test]
    fn equilibrium_current_is_negligible() {
        // At zero bias the drain current must vanish (SG flux identity).
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let bias = Bias::default();
        let mut psi = initial_guess(&dev, &bias);
        let phi = vec![0.0; dev.len()];
        assert!(solve(&dev, &mut psi, &phi, &phi, &bias).converged);
        let n = solve_electrons(&dev, &psi, &bias).unwrap();
        let id = drain_current(&dev, &psi, &n);
        assert!(id < 1.0e-15, "equilibrium leakage {id} A/µm");
    }

    #[test]
    fn contacts_pin_the_equilibrium_density() {
        // `u = n_i` at a grounded contact is the equilibrium density at
        // the contact's built-in potential.
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let bias = Bias::default();
        let mut psi = initial_guess(&dev, &bias);
        let phi = vec![0.0; dev.len()];
        assert!(solve(&dev, &mut psi, &phi, &phi, &bias).converged);
        let n = solve_electrons(&dev, &psi, &bias).unwrap();
        let (_, ni) = thermals(&dev);
        let mut contacts = 0;
        for (idx, boundary) in dev.mesh.boundary.iter().enumerate() {
            if contact_voltage(*boundary, &bias).is_some() {
                let want = equilibrium_electrons(dev.doping[idx], ni);
                assert!(
                    (n[idx] / want - 1.0).abs() < 1e-12,
                    "node {idx} ({boundary:?}): {:e} vs {want:e}",
                    n[idx]
                );
                contacts += 1;
            }
        }
        assert!(contacts > 0);
    }

    #[test]
    fn terminal_currents_are_conserved() {
        // The coarse reference NFET from (0, 0.05) V to (1.2, 1.2) V,
        // one simulator ramping between the points: the currents into
        // the drain, source and substrate cancel.
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let mut sim = DeviceSimulator::new(dev).expect("equilibrium");
        let biases = [
            (0.0, 0.05),
            (0.3, 0.05),
            (0.6, 0.05),
            (1.2, 0.05),
            (1.2, 1.2),
            (0.6, 1.2),
            (0.0, 1.2),
        ];
        for (v_g, v_d) in biases {
            sim.set_bias(v_g, v_d).expect("converged bias point");
            let (dev, psi, n) = (sim.device(), sim.potential(), sim.electron_density());
            let [i_d, i_s, i_b] = [Boundary::Drain, Boundary::Source, Boundary::Substrate]
                .map(|contact| contact_current(dev, psi, n, contact));
            assert_eq!(i_d.abs().to_bits(), sim.drain_current().to_bits());
            let imbalance = (i_d + i_s + i_b).abs();
            assert!(
                imbalance <= 1e-6 * i_d.abs(),
                "({v_g}, {v_d}) V: I_D {i_d:e}, I_S {i_s:e}, I_B {i_b:e} A/µm"
            );
        }
    }

    #[test]
    fn electron_density_tracks_boltzmann_at_equilibrium() {
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let bias = Bias::default();
        let mut psi = initial_guess(&dev, &bias);
        let phi = vec![0.0; dev.len()];
        assert!(solve(&dev, &mut psi, &phi, &phi, &bias).converged);
        let n = solve_electrons(&dev, &psi, &bias).unwrap();
        let (vt, ni) = thermals(&dev);
        // Sample a handful of interior silicon nodes: n ≈ n_i·e^{ψ/v_T}.
        let mesh = &dev.mesh;
        for j in (dev.j_si0 + 1..mesh.ny() - 1).step_by(3) {
            for i in (1..mesh.nx() - 1).step_by(5) {
                let idx = mesh.idx(i, j);
                let want = ni * (psi[idx] / vt).exp();
                let got = n[idx];
                if want > 1.0e3 {
                    assert!(
                        (got / want - 1.0).abs() < 0.05,
                        "node ({i},{j}): {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn bernoulli_positive_and_decreasing() {
        let mut rng = SplitMix64::new(0xb3e0);
        for _ in 0..1024 {
            let x = -100.0 + 200.0 * rng.next_f64();
            let dx = 0.01 + 4.99 * rng.next_f64();
            assert!(bernoulli(x) >= 0.0, "B({x}) < 0");
            assert!(
                bernoulli(x + dx) <= bernoulli(x),
                "B rises from {x} to {}",
                x + dx
            );
        }
    }

    #[test]
    fn zero_pivot_is_a_typed_error() {
        // With zero mobility no face conducts: every non-contact row of
        // the continuity matrix is empty and elimination meets an exact
        // zero pivot at the first of them.
        let mut dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        dev.mobility.fill(0.0);
        let bias = Bias {
            v_gate: 0.3,
            v_drain: 0.6,
            ..Bias::default()
        };
        let psi = vec![0.0; dev.len()];
        let err = solve_electrons(&dev, &psi, &bias).unwrap_err();
        let TcadError::ContinuityZeroPivot { bias: at, row } = err else {
            panic!("expected a continuity zero pivot, got {err:?}");
        };
        assert_eq!(at, bias);
        assert!(row < BandOrder::new(&dev.mesh, dev.j_si0).unknowns());
        assert_eq!(
            err.to_string(),
            format!("continuity solve hit a zero pivot at row {row} (Vg=0.3, Vd=0.6)")
        );
    }
}
