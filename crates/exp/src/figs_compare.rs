//! Strategy-comparison figures: Fig. 10 (SNM), Fig. 11 (delay at 250 mV)
//! and Fig. 12 (chain energy and V_min) — super-V_th versus the proposed
//! sub-V_th scaling.

use subvt_units::Volts;

use crate::context::{StudyContext, V_SUBVT};
use crate::figs_circuit::{chain_mep, delay_at, per_design, snm_at};
use crate::table::{fmt, Table};

/// Fig. 10: simulated inverter SNM at 250 mV under both strategies.
///
/// Paper shape: sub-V_th SNM stays nearly constant across nodes and is
/// 19 % larger than super-V_th at 32 nm.
pub fn fig10(ctx: &StudyContext) -> Table {
    let v = Volts::new(V_SUBVT);
    let pairs: Vec<_> = ctx
        .supervth
        .iter()
        .copied()
        .zip(ctx.subvth.iter().copied())
        .collect();
    let rows = per_design(ctx.study, pairs, move |study, (sup, sub)| {
        let snm = |d| snm_at(study, d, v);
        (sup.node.name().to_owned(), snm(sup), snm(sub))
    });

    let mut t = Table::new(
        "Fig 10: inverter SNM at 250 mV, super-Vth vs sub-Vth scaling",
        &["Node", "SNM super (mV)", "SNM sub (mV)", "sub/super"],
    );
    for (name, a, b) in rows {
        t.push_row(vec![name, fmt(a * 1e3, 1), fmt(b * 1e3, 1), fmt(b / a, 2)]);
    }
    t
}

/// Fig. 11: normalized FO1 delay at 250 mV under both strategies (each
/// normalized to its own 90 nm point, as in the paper).
///
/// Paper shape: sub-V_th delay improves ≈18 % per generation
/// monotonically, while super-V_th delay is non-monotonic.
pub fn fig11(ctx: &StudyContext) -> Table {
    let v = Volts::new(V_SUBVT);
    let pairs: Vec<_> = ctx
        .supervth
        .iter()
        .copied()
        .zip(ctx.subvth.iter().copied())
        .collect();
    let rows = per_design(ctx.study, pairs, move |study, (sup, sub)| {
        let delay = |d| delay_at(study, d, v);
        (sup.node.name().to_owned(), delay(sup), delay(sub))
    });

    let base_sup = rows[0].1;
    let base_sub = rows[0].2;
    let mut t = Table::new(
        "Fig 11: FO1 inverter delay at 250 mV, normalized per strategy",
        &[
            "Node",
            "t_p super (ns)",
            "t_p sub (ns)",
            "super (norm)",
            "sub (norm)",
        ],
    );
    for (name, a, b) in rows {
        t.push_row(vec![
            name,
            fmt(a * 1e9, 1),
            fmt(b * 1e9, 1),
            fmt(a / base_sup, 2),
            fmt(b / base_sub, 2),
        ]);
    }
    t
}

/// Fig. 12: minimum-energy-point energy and `V_min` for the 30-inverter
/// chain under both strategies.
///
/// Paper shape: the proposed strategy consumes ≈23 % less energy at the
/// 32 nm node with `V_min` nearly flat, versus the rising `V_min` of
/// super-V_th scaling.
pub fn fig12(ctx: &StudyContext) -> Table {
    // One job per chain: the four super-V_th chains, then the four
    // sub-V_th ones.
    let n = ctx.supervth.len();
    let designs = [ctx.supervth.as_slice(), ctx.subvth.as_slice()].concat();
    let mut meps = per_design(ctx.study, designs, chain_mep);
    let meps_sub = meps.split_off(n);
    let rows: Vec<_> = ctx
        .supervth
        .iter()
        .zip(meps.into_iter().zip(meps_sub))
        .map(|(sup, (mep_sup, mep_sub))| {
            let mep_sup = mep_sup.expect("chain MEP search failed");
            let mep_sub = mep_sub.expect("chain MEP search failed");
            (
                sup.node.name().to_owned(),
                mep_sup.energy.as_femtojoules(),
                mep_sub.energy.as_femtojoules(),
                mep_sup.v_min.as_millivolts(),
                mep_sub.v_min.as_millivolts(),
            )
        })
        .collect();
    let mut t = Table::new(
        "Fig 12: chain energy and V_min, super-Vth vs sub-Vth scaling",
        &[
            "Node",
            "E super (fJ)",
            "E sub (fJ)",
            "V_min super (mV)",
            "V_min sub (mV)",
            "E sub/super",
        ],
    );
    for (name, es, eb, vs, vb) in rows {
        t.push_row(vec![
            name,
            fmt(es, 3),
            fmt(eb, 3),
            fmt(vs, 0),
            fmt(vb, 0),
            fmt(eb / es, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_subvth_wins_at_32nm() {
        let t = fig10(StudyContext::cached());
        let ratio: f64 = t.rows[3][3].parse().unwrap();
        // Paper: 19 % better. Accept any clear win (> 5 %).
        assert!(
            ratio > 1.05,
            "sub-Vth SNM should win at 32 nm: ratio {ratio}"
        );
    }

    #[test]
    fn fig11_subvth_delay_improves_monotonically() {
        let t = fig11(StudyContext::cached());
        let norm: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        for w in norm.windows(2) {
            assert!(
                w[1] < w[0] + 1e-9,
                "sub-Vth delay must improve each generation: {norm:?}"
            );
        }
    }

    #[test]
    fn fig12_subvth_saves_energy_at_32nm() {
        let t = fig12(StudyContext::cached());
        let ratio: f64 = t.rows[3][5].parse().unwrap();
        // Paper: 23 % less energy. Accept any clear saving (> 5 %).
        assert!(ratio < 0.95, "sub-Vth should save energy at 32 nm: {ratio}");
    }

    #[test]
    fn fig12_subvth_vmin_flatter() {
        let t = fig12(StudyContext::cached());
        let sup: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        let sub: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        let spread = |v: &[f64]| {
            v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(
            spread(&sub) < spread(&sup),
            "sub-Vth V_min spread {} should be below super-Vth {}",
            spread(&sub),
            spread(&sup)
        );
    }
}
