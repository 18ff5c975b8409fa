//! Validates the compact device model (subvt-physics) against the 2-D
//! drift-diffusion solver (subvt-tcad) — the workspace's MEDICI
//! substitute — on the paper's reference device and on parameter trends.
//!
//! Known, documented offsets (EXPERIMENTS.md): the literal 2-D structure
//! carries roughly two decades more subthreshold current than the
//! calibrated compact model (lower constant-current V_th), while the
//! swing and DIBL agree closely.

use subvt_physics::device::DeviceParams;
use subvt_tcad::device::{MeshDensity, Mosfet2d};
use subvt_tcad::extract::{id_vg, sweep_and_extract};
use subvt_tcad::gummel::DeviceSimulator;
use subvt_units::{Nanometers, PerCubicCentimeter};

#[test]
fn swing_agrees_with_compact_model() {
    let params = DeviceParams::reference_90nm_nfet();
    let compact = params.characterize();
    let ext = sweep_and_extract(&params, MeshDensity::Coarse).expect("2-D sweep");
    let diff = (ext.s_s - compact.s_s.get()).abs();
    assert!(
        diff < 12.0,
        "S_S: 2-D {:.1} vs compact {:.1} mV/dec",
        ext.s_s,
        compact.s_s.get()
    );
}

/// Asserts that each named field of `ext` lies within a relative
/// `bound` of its pinned value.
fn assert_within(pinned: &[(&str, f64)], ext: &subvt_tcad::Extraction, bound: f64, what: &str) {
    for (field, pinned) in pinned {
        let value = match *field {
            "s_s" => ext.s_s,
            "v_th_sat" => ext.v_th_sat,
            "i_off" => ext.i_off,
            "i_on" => ext.i_on,
            "dibl" => ext.dibl,
            other => panic!("unknown field {other}"),
        };
        let drift = (value / pinned - 1.0).abs();
        assert!(
            drift < bound,
            "{field}: {value:e} vs {what} {pinned:e} (relative drift {drift:e})"
        );
    }
}

#[test]
fn coarse_extraction_stays_within_1e_5_of_solver_revision_v2() {
    // The coarse reference NFET as solver revision v2 extracted it,
    // when every Gummel iteration ran its Poisson Newton to 1 nV, each
    // written with the fewest digits that round-trip to its bits. v2's
    // 1 µV outer test left its I_on (0.0025293291680379515) 1.95e-5
    // above the converged value, so I_on is held to the converged
    // reference below instead.
    let v2 = [
        ("s_s", 83.46805595026352),
        ("v_th_sat", 0.19384827058026022),
        ("i_off", 7.708612171521492e-9),
        ("dibl", 0.06615381729703126),
    ];
    let params = DeviceParams::reference_90nm_nfet();
    let ext = sweep_and_extract(&params, MeshDensity::Coarse).expect("2-D sweep");
    assert_within(&v2, &ext, 1.0e-5, "v2");
}

#[test]
fn coarse_extraction_stays_within_1e_6_of_the_converged_reference() {
    // The coarse reference NFET solved with Anderson-mixed Gummel to a
    // 1e-10 V outer tolerance, each written with the fewest digits that
    // round-trip to its bits.
    let converged = [
        ("s_s", 83.46805538811114),
        ("v_th_sat", 0.19384827067633315),
        ("i_off", 7.708612169941721e-9),
        ("i_on", 0.0025292797948739836),
        ("dibl", 0.06615380624240588),
    ];
    let params = DeviceParams::reference_90nm_nfet();
    let ext = sweep_and_extract(&params, MeshDensity::Coarse).expect("2-D sweep");
    assert_within(&converged, &ext, 1.0e-6, "converged");
}

#[test]
fn dibl_agrees_within_factor_two() {
    let params = DeviceParams::reference_90nm_nfet();
    let compact = params.characterize();
    let ext = sweep_and_extract(&params, MeshDensity::Coarse).expect("2-D sweep");
    let ratio = ext.dibl / compact.dibl;
    assert!(
        (0.5..2.0).contains(&ratio),
        "DIBL: 2-D {} vs compact {} (ratio {ratio})",
        ext.dibl,
        compact.dibl
    );
}

#[test]
fn off_current_within_three_decades() {
    let params = DeviceParams::reference_90nm_nfet();
    let compact = params.characterize();
    let ext = sweep_and_extract(&params, MeshDensity::Coarse).expect("2-D sweep");
    let decades = (ext.i_off / compact.i_off.get()).log10().abs();
    assert!(
        decades < 3.0,
        "I_off: 2-D {:e} vs compact {:e} ({decades:.1} decades apart)",
        ext.i_off,
        compact.i_off.get()
    );
}

#[test]
fn both_engines_agree_halo_raises_threshold() {
    // Trend validation: raising the halo peak must lower leakage in both
    // engines (the mechanism behind the paper's Fig. 1(c) flow).
    let base = DeviceParams::reference_90nm_nfet();
    let mut heavy = base;
    heavy.n_p_halo = PerCubicCentimeter::new(2.0 * base.n_p_halo.get());

    let compact_drop = heavy.characterize().i_off.get() / base.characterize().i_off.get();
    assert!(compact_drop < 1.0, "compact: halo must cut leakage");

    let ioff_2d = |p: &DeviceParams| {
        let dev = Mosfet2d::build(p, MeshDensity::Coarse);
        let mut sim = DeviceSimulator::new(dev).expect("equilibrium");
        sim.set_bias(0.0, p.v_dd.as_volts()).expect("bias");
        sim.drain_current()
    };
    let tcad_drop = ioff_2d(&heavy) / ioff_2d(&base);
    assert!(
        tcad_drop < 1.0,
        "2-D: halo must cut leakage (ratio {tcad_drop})"
    );
}

#[test]
fn both_engines_agree_shorter_channel_degrades_swing() {
    // The paper's core mechanism, checked in both engines: shrinking
    // L_poly at fixed T_ox degrades S_S.
    let base = DeviceParams::reference_90nm_nfet();
    let mut short = base;
    short.geometry.l_poly = Nanometers::new(45.0);

    let ss_c_base = base.characterize().s_s.get();
    let ss_c_short = short.characterize().s_s.get();
    assert!(ss_c_short > ss_c_base, "compact trend");

    let ss_2d = |p: &DeviceParams| {
        let dev = Mosfet2d::build(p, MeshDensity::Coarse);
        let mut sim = DeviceSimulator::new(dev).expect("equilibrium");
        let curve = id_vg(&mut sim, 0.6, 0.5, 0.05).expect("sweep");
        let i0 = curve.i_d[0];
        curve
            .swing_between(10.0 * i0, 1.0e3 * i0)
            .expect("swing window")
    };
    let ss_t_base = ss_2d(&base);
    let ss_t_short = ss_2d(&short);
    assert!(
        ss_t_short > ss_t_base,
        "2-D trend: {ss_t_short} vs {ss_t_base} mV/dec"
    );
}

#[test]
fn subvth_style_device_shows_better_swing_in_2d() {
    // A longer-channel, lighter-halo device (the paper's §3 recipe)
    // must show a steeper subthreshold slope in the 2-D engine too.
    let base = DeviceParams::reference_90nm_nfet();
    let mut relaxed = base;
    relaxed.geometry.l_poly = Nanometers::new(95.0);
    relaxed.n_p_halo = PerCubicCentimeter::new(0.5e18);

    let ss = |p: &DeviceParams| {
        let dev = Mosfet2d::build(p, MeshDensity::Coarse);
        let mut sim = DeviceSimulator::new(dev).expect("equilibrium");
        let curve = id_vg(&mut sim, 0.6, 0.5, 0.05).expect("sweep");
        let i0 = curve.i_d[0];
        curve
            .swing_between(10.0 * i0, 1.0e3 * i0)
            .expect("swing window")
    };
    let ss_base = ss(&base);
    let ss_relaxed = ss(&relaxed);
    assert!(
        ss_relaxed < ss_base,
        "longer channel must improve 2-D swing: {ss_relaxed} vs {ss_base}"
    );
}
