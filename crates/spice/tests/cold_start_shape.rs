//! A forced cold start does not hide a warm-start solution of the wrong
//! shape: `dc_operating_point_from` rejects it before it decides to
//! ignore it.
//!
//! `SUBVT_SPICE_COLD_START` is read once per process, so this file holds
//! a single test that sets it before any solve.

use subvt_spice::mna::{dc_operating_point_from, DcSolution, SpiceError};
use subvt_spice::netlist::{Netlist, Waveform};

#[test]
fn forced_cold_start_still_rejects_a_mismatched_initial_solution() {
    std::env::set_var("SUBVT_SPICE_COLD_START", "1");
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
