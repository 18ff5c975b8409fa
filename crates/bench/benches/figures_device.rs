//! Benchmarks for the device-level figures: Fig. 2 (S_S, I_on/I_off),
//! Fig. 3 (I_on), Fig. 7 (S_S vs L_poly), Fig. 8 (factors vs L_poly) and
//! Fig. 9 (both strategies).

use subvt_bench::Harness;
use subvt_core::metrics::energy_factor;
use subvt_core::{SubVthStrategy, TechNode};
use subvt_exp::{figs_device, Study};
use subvt_physics::device::DeviceKind;
use subvt_units::Nanometers;

fn main() {
    let mut h = Harness::new("figures_device").max_samples(20);
    let ctx = &Study::default().context().expect("default study designs");
    h.bench("fig2_ss_ionioff", || figs_device::fig2(ctx));
    h.bench("fig3_ion", || figs_device::fig3(ctx));

    let strategy = SubVthStrategy::default();
    h.bench("fig7_optimize_doping_one_length", || {
        strategy
            .optimize_doping_at_length(TechNode::N45, DeviceKind::Nfet, Nanometers::new(60.0))
            .unwrap()
    });
    h.bench("fig8_energy_factor_at_optimal_doping", || {
        let p = strategy
            .optimize_doping_at_length(TechNode::N45, DeviceKind::Nfet, Nanometers::new(60.0))
            .unwrap();
        energy_factor(&p.characterize())
    });
    h.bench("fig9_lpoly_ss", || figs_device::fig9(ctx));
    h.finish();
}
