//! Benchmarks regenerating the paper's tables: the generalized-scaling
//! table and the two device-design flows.

use subvt_bench::Harness;
use subvt_core::strategy::ScalingStrategy;
use subvt_core::{SubVthStrategy, SuperVthStrategy, TechNode};
use subvt_exp::Study;

fn main() {
    let mut h = Harness::new("tables").max_samples(20);
    h.bench("table1_generalized_scaling", subvt_exp::tables::table1);

    h.bench("table2_design_node_90nm", || {
        SuperVthStrategy::default()
            .design_node(TechNode::N90)
            .unwrap()
    });
    let ctx = &Study::default().context().expect("default study designs");
    h.bench("table2_render_full_table", || {
        subvt_exp::tables::table2(ctx)
    });

    let strategy = SubVthStrategy::default();
    h.bench("table3_design_node_90nm", || {
        strategy.design_node(TechNode::N90).unwrap()
    });
    h.bench("table3_render_full_table", || {
        subvt_exp::tables::table3(ctx)
    });
    h.finish();
}
