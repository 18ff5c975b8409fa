//! Benchmarks for the strategy-comparison figures: Fig. 10 (SNM),
//! Fig. 11 (delay) and Fig. 12 (energy/V_min), measured at the 32 nm
//! node where the paper quotes its headline numbers.

use subvt_bench::Harness;
use subvt_circuits::chain::InverterChain;
use subvt_circuits::delay::analytic_fo1_delay;
use subvt_exp::figs_circuit::snm_at;
use subvt_exp::Study;
use subvt_units::Volts;

fn main() {
    let mut h = Harness::new("figures_compare").max_samples(20);
    let ctx = &Study::default().context().expect("default study designs");
    h.bench("fig10_snm_both_strategies_32nm", || {
        let a = snm_at(&ctx.study, &ctx.supervth[3], Volts::new(0.25));
        let b = snm_at(&ctx.study, &ctx.subvth[3], Volts::new(0.25));
        (a, b)
    });
    h.bench("fig11_delay_compare_analytic", || {
        let a = analytic_fo1_delay(&ctx.supervth[3].cmos_pair(), Volts::new(0.25));
        let b = analytic_fo1_delay(&ctx.subvth[3].cmos_pair(), Volts::new(0.25));
        (a, b)
    });
    h.bench("fig12_mep_both_strategies_32nm", || {
        let a = InverterChain::paper_chain(ctx.supervth[3].cmos_pair()).minimum_energy_point();
        let b = InverterChain::paper_chain(ctx.subvth[3].cmos_pair()).minimum_energy_point();
        (a.energy, b.energy)
    });
    h.finish();
}
