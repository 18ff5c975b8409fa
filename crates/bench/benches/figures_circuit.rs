//! Benchmarks for the circuit-level figures on the super-V_th designs:
//! Fig. 4 (inverter SNM), Fig. 5 (FO1 delay) and Fig. 6 (V_min / energy).

use subvt_bench::Harness;
use subvt_circuits::chain::InverterChain;
use subvt_exp::figs_circuit::{delay_at, snm_at};
use subvt_exp::Study;
use subvt_units::Volts;

fn main() {
    let mut h = Harness::new("figures_circuit").max_samples(20);
    let ctx = &Study::default().context().expect("default study designs");
    h.bench("fig4_snm_90nm_at_250mV", || {
        snm_at(&ctx.study, &ctx.supervth[0], Volts::new(0.25))
    });
    h.bench("fig5_spice_fo1_delay_90nm_at_250mV", || {
        delay_at(&ctx.study, &ctx.supervth[0], Volts::new(0.25))
    });
    let chain = InverterChain::paper_chain(ctx.supervth[0].cmos_pair());
    h.bench("fig6_minimum_energy_point_90nm", || {
        chain.minimum_energy_point()
    });
    h.finish();
}
