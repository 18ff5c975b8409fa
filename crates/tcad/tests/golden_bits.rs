//! The two halves of the Gummel loop pinned to the last bit. The TCAD
//! CSVs print four significant digits, so a drift in the final ulp of
//! the potential or the electron density would pass them unseen. The
//! values below must never move without a deliberate change to the
//! discretization or the linear solver. They last moved with solver
//! revision v7, a deliberate change of the linear solver: both systems
//! went from a banded LU to a banded symmetric LDLᵀ, the continuity
//! system to the Slotboom variable, and the drain current to the
//! Slotboom face weights. The crate's unit test
//! `poisson::tests::the_symmetric_solves_agree_with_the_lu_path_on_the_golden_input`
//! holds the solves below to revision v6's LU path: ψ within 1e-13, n
//! within 1e-10 and I_D within 1e-11 relative, in the same Newton
//! iterations.
//!
//! Input: the coarse reference NFET at `V_g = 0.8 V`, `V_d = 0.6 V`,
//! the charge-neutral initial guess, an electron quasi-Fermi potential
//! that ramps linearly from source to drain, and holes at the grounded
//! substrate's level.

use subvt_engine::KeyBuilder;
use subvt_physics::device::DeviceParams;
use subvt_tcad::continuity::{drain_current, solve_electrons};
use subvt_tcad::device::{MeshDensity, Mosfet2d};
use subvt_tcad::poisson::{initial_guess, solve, solve_to, Bias};

fn bits(values: &[f64]) -> u64 {
    KeyBuilder::new("tcad.golden").f64s(values).finish()
}

fn fixed_input() -> (Mosfet2d, Bias, Vec<f64>, Vec<f64>) {
    let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
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
    let psi = initial_guess(&dev, &bias);
    (dev, bias, psi, phi_n)
}

#[test]
fn poisson_solve_keeps_its_bits() {
    let (dev, bias, mut psi, phi_n) = fixed_input();
    let phi_p = vec![0.0; dev.len()];
    assert_eq!(bits(&psi), 0xeebd3064a2c6c7df, "initial guess");

    // The Gummel loop's inexact inner solve.
    let loose = solve_to(&dev, &mut psi, &phi_n, &phi_p, &bias, 1.0e-2);
    assert!(loose.converged, "{loose:?}");
    assert_eq!(
        (loose.iterations, loose.max_update.to_bits(), bits(&psi)),
        (12, 0x3f65b8010a1bd992, 0x748056b47c12486c),
        "solve_to(1e-2)"
    );

    // On to the 1 nV tolerance of `solve`.
    let tight = solve(&dev, &mut psi, &phi_n, &phi_p, &bias);
    assert!(tight.converged, "{tight:?}");
    assert_eq!(
        (tight.iterations, tight.max_update.to_bits(), bits(&psi)),
        (3, 0x3d5b0c54dbad940d, 0x1bf6c5dedb76c818),
        "solve"
    );
}

#[test]
fn continuity_solve_keeps_its_bits() {
    let (dev, bias, mut psi, phi_n) = fixed_input();
    let phi_p = vec![0.0; dev.len()];
    assert!(solve(&dev, &mut psi, &phi_n, &phi_p, &bias).converged);
    assert_eq!(bits(&psi), 0x1bf6c5dedb76c818, "solved potential");

    let n = solve_electrons(&dev, &psi, &bias).expect("continuity solve");
    assert_eq!(bits(&n), 0x48891af470c6eb92, "electron density");
    assert_eq!(
        drain_current(&dev, &psi, &n).to_bits(),
        0x3fd10bde95423835,
        "drain current"
    );
}
