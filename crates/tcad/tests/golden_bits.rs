//! The two halves of the Gummel loop pinned to the last bit. The TCAD
//! CSVs print four significant digits, so a drift in the final ulp of
//! the potential or the electron density would pass them unseen. The
//! values below were recorded before the Poisson and continuity
//! assembly moved into a solver-owned workspace, and must never move
//! without a deliberate change to the discretization.
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
        (12, 0x3f65b8010a1bd992, 0xa5d8d122282bdbc7),
        "solve_to(1e-2)"
    );

    // On to the 1 nV tolerance of `solve`.
    let tight = solve(&dev, &mut psi, &phi_n, &phi_p, &bias);
    assert!(tight.converged, "{tight:?}");
    assert_eq!(
        (tight.iterations, tight.max_update.to_bits(), bits(&psi)),
        (3, 0x3d5b0c5510b5773b, 0x34db24a68f38f5af),
        "solve"
    );
}

#[test]
fn continuity_solve_keeps_its_bits() {
    let (dev, bias, mut psi, phi_n) = fixed_input();
    let phi_p = vec![0.0; dev.len()];
    assert!(solve(&dev, &mut psi, &phi_n, &phi_p, &bias).converged);
    assert_eq!(bits(&psi), 0x34db24a68f38f5af, "solved potential");

    let n = solve_electrons(&dev, &psi, &bias).expect("continuity solve");
    assert_eq!(bits(&n), 0x93d8b3ba964af13d, "electron density");
    assert_eq!(
        drain_current(&dev, &psi, &n).to_bits(),
        0x3fd10bde9542334c,
        "drain current"
    );
}
