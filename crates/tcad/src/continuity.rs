//! Scharfetter–Gummel electron continuity: given a potential field, the
//! steady-state electron density solves a linear M-matrix system, solved
//! directly with the banded LU (robust against the 18-decade dynamic
//! range of carrier densities).
//!
//! The solver is unipolar (electrons only): hole current is negligible
//! for the NFET terminal characteristics studied here, and holes stay in
//! quasi-equilibrium with the grounded substrate (`φ_p = 0`). This is
//! the standard approximation for MOSFET subthreshold analysis.

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
/// banded LU's half-bandwidth is the silicon depth.
///
/// # Errors
///
/// Returns [`TcadError::ContinuityZeroPivot`] if the banded LU meets a
/// zero pivot (not expected for a connected silicon region with at
/// least one contact).
pub fn solve_electrons(device: &Mosfet2d, psi: &[f64], bias: &Bias) -> Result<Vec<f64>, TcadError> {
    let mut n = vec![0.0; device.len()];
    solve_electrons_in(&mut Workspace::new(device), device, psi, bias, &mut n)?;
    Ok(n)
}

/// [`solve_electrons`] in a [`Workspace`] built for `device`, writing
/// the silicon entries of `n` in place (its oxide entries are left as
/// they are). On an error `n` is unchanged.
///
/// Each face's Scharfetter–Gummel pair `c·B(±Δψ/v_T)` is evaluated once
/// and stamped into the rows of both its nodes. The x-faces go first,
/// then the y-faces, so every row accumulates its left, right, upper
/// and lower face in that order: the order of a node-by-node assembly,
/// and hence its bits.
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
    let mesh = &device.mesh;
    let (vt, ni) = thermals(device);
    let nx = mesh.nx();
    let ny = mesh.ny();
    let j0 = device.j_si0;
    let order = BandOrder::new(mesh, j0);
    let mat = &mut ws.matrix;
    let rhs = &mut ws.rhs[..order.unknowns()];
    mat.reset(order.unknowns(), order.bandwidth());
    rhs.fill(0.0);

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
    // The face from node `a` to node `b`, at spacing `d` and transverse
    // dual width `w`. The flux into `a` is c·(n_b·B(du) − n_a·B(−du));
    // seen from `b`, du is exactly −du, and `mu` and `c` are symmetric.
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

    mat.solve_in_place(rhs)
        .map_err(|e| TcadError::ContinuityZeroPivot {
            bias: *bias,
            row: e.row,
        })?;

    for j in j0..ny {
        for i in 0..nx {
            // Direct elimination can leave tiny negative values in
            // near-depleted cells; floor them at a physical minimum.
            n[mesh.idx(i, j)] = rhs[order.local(i, j)].max(1.0e-12 * ni);
        }
    }
    Ok(())
}

/// Terminal electron current at the drain contact, amps per micron of
/// gate width: the net Scharfetter–Gummel flux from interior silicon
/// into the drain Dirichlet nodes.
pub fn drain_current(device: &Mosfet2d, psi: &[f64], n: &[f64]) -> f64 {
    let mesh = &device.mesh;
    let (vt, _) = thermals(device);
    let nx = mesh.nx();
    let ny = mesh.ny();
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
    // Currents are per cm of device depth; report per µm of gate width.
    total.abs() * 1.0e-4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MeshDensity, Mosfet2d};
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
