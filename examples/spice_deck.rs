//! Drive the circuit simulator from a classic SPICE deck: build the
//! device models with the scaling flows, then describe the circuit as
//! text — the workflow of a traditional SPICE user, on this stack.
//!
//! ```text
//! cargo run --release -p subvt-exp --example spice_deck
//! ```

use std::collections::HashMap;

use subvt_core::strategy::ScalingStrategy;
use subvt_core::{SuperVthStrategy, TechNode};
use subvt_spice::parser::parse_deck;
use subvt_spice::transient::{transient, Integrator, TransientSpec};
use subvt_spice::{dc_operating_point, dc_sweep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Device models from the 90 nm super-V_th design.
    let design = SuperVthStrategy::default().design_node(TechNode::N90)?;
    let mut models = HashMap::new();
    models.insert("nch".to_owned(), design.nfet.mos_model());
    models.insert("pch".to_owned(), design.pfet.mos_model());

    // A NAND2 gate at 250 mV, described as a plain SPICE deck.
    let deck = "\
* 2-input NAND at a 250 mV rail
VDD vdd 0 0.25
VA  a   0 0.25
VB  b   0 0.25
MP1 out a vdd pch W=2.4u
MP2 out b vdd pch W=2.4u
MN1 out a mid  nch W=1u
MN2 mid b 0    nch W=1u
CL  out 0 5f
";
    let net = parse_deck(deck, &models)?;
    let sol = dc_operating_point(&net)?;
    let out = net.find_node("out").expect("deck defines `out`");
    println!(
        "NAND(1,1) output: {:.1} mV (expect ~0)",
        sol.node_voltages[out] * 1e3
    );

    // Sweep input A with B held high: the deck is reusable data.
    let sweep: Vec<f64> = (0..=10).map(|k| 0.25 * k as f64 / 10.0).collect();
    let sols = dc_sweep(&net, "VA", &sweep)?;
    println!("\nVTC with B = high:");
    for (va, s) in sweep.iter().zip(&sols) {
        println!(
            "  V_A = {:>4.0} mV -> out = {:>5.1} mV",
            va * 1e3,
            s.node_voltages[out] * 1e3
        );
    }

    // And a transient: pulse A while B stays high.
    let deck_tran = deck.replace(
        "VA  a   0 0.25",
        "VA  a   0 PULSE(0 0.25 2u 0.2u 0.2u 6u 0)",
    );
    let net_tran = parse_deck(&deck_tran, &models)?;
    let res = transient(
        &net_tran,
        TransientSpec::with_steps(15.0e-6, 1500, Integrator::Trapezoidal),
    )?;
    let out_t = net_tran.find_node("out").expect("out");
    let final_v = res.voltage(res.time.len() - 1, out_t);
    println!(
        "\nTransient: out settles at {:.1} mV after the input pulse",
        final_v * 1e3
    );
    Ok(())
}
