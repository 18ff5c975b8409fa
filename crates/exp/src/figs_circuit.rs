//! Circuit-level figures on the super-V_th devices: Fig. 4 (inverter
//! SNM), Fig. 5 (FO1 delay) and Fig. 6 (chain energy and V_min).

use subvt_circuits::backend::CircuitError;
use subvt_circuits::chain::{InverterChain, MinimumEnergyPoint};
use subvt_circuits::snm::noise_margins;
use subvt_core::metrics::energy_factor;
use subvt_core::strategy::NodeDesign;
use subvt_units::Volts;

use crate::context::{Study, StudyContext, V_SUBVT};
use crate::table::{fmt, Table};

/// VTC sample count for SNM extraction.
const VTC_POINTS: usize = 161;

/// SNM of a node's inverter at the given supply, via the study's
/// circuit backend's VTC and the paper's gain = −1 definition. Returns
/// NaN if the solve fails or the inverter has no restoring region at
/// that supply.
pub fn snm_at(study: &Study, design: &NodeDesign, v_dd: Volts) -> f64 {
    let circuit = study.circuit.instance();
    circuit
        .vtc(&study.pair(design), v_dd, VTC_POINTS)
        .ok()
        .and_then(|vtc| noise_margins(&vtc))
        .map(|nm| nm.snm())
        .unwrap_or(f64::NAN)
}

/// Measured FO1 delay of a node's inverter at the given supply, through
/// the study's circuit backend. Returns NaN on measurement failure.
pub fn delay_at(study: &Study, design: &NodeDesign, v_dd: Volts) -> f64 {
    let circuit = study.circuit.instance();
    circuit
        .fo1_delay(&study.pair(design), v_dd)
        .map(|d| d.average().get())
        .unwrap_or(f64::NAN)
}

/// Minimum-energy point of the paper's 30-inverter chain built from a
/// node's devices, through the study's circuit backend. The search's
/// probes run one after another: their sequence fixes `V_min`.
///
/// # Errors
///
/// Returns the backend's [`CircuitError`] when a probe fails.
pub(crate) fn chain_mep(
    study: &Study,
    design: &NodeDesign,
) -> Result<MinimumEnergyPoint, CircuitError> {
    let chain = InverterChain::paper_chain(study.pair(design));
    study.circuit.instance().minimum_energy_point(&chain)
}

/// Runs `f` once per design on the engine pool, one job per design, and
/// returns the results in input order. A design is whatever one job
/// evaluates: a node, or a super-/sub-V_th pair of nodes. The jobs are
/// independent, so the output does not depend on the pool size; two
/// jobs that need one SPICE record share it through the cache's single
/// flight. A job that can fail returns its `Result` for the caller to
/// unwrap: the pool re-raises a panic inside a job as `job panicked: …`.
pub(crate) fn per_design<D, R, F>(study: Study, designs: Vec<D>, f: F) -> Vec<R>
where
    D: Send + 'static,
    R: Send + 'static,
    F: Fn(&Study, &D) -> R + Send + Sync + 'static,
{
    subvt_engine::global().map(designs, move |d| f(&study, &d))
}

/// Fig. 4: simulated inverter SNM at nominal `V_dd` and at 250 mV across
/// nodes (super-V_th strategy).
///
/// Paper shape: SNM degrades more than 10 % between 90 nm and 32 nm.
pub fn fig4(ctx: &StudyContext) -> Table {
    let rows = per_design(ctx.study, ctx.supervth.clone(), |study, d| {
        let nominal = snm_at(study, d, d.nfet.v_dd);
        let sub = snm_at(study, d, Volts::new(V_SUBVT));
        (d.node.name().to_owned(), nominal, sub)
    });
    let base_sub = rows[0].2;
    let mut t = Table::new(
        "Fig 4: simulated inverter SNM (super-Vth scaling)",
        &[
            "Node",
            "SNM @nominal (mV)",
            "SNM @250mV (mV)",
            "250mV SNM vs 90nm",
        ],
    );
    for (name, nominal, sub) in rows {
        t.push_row(vec![
            name,
            fmt(nominal * 1e3, 1),
            fmt(sub * 1e3, 1),
            fmt(sub / base_sub, 3),
        ]);
    }
    t
}

/// Fig. 5: simulated FO1 inverter delay at nominal `V_dd` and at 250 mV
/// across nodes (super-V_th strategy), normalized to 90 nm.
///
/// Paper shape: nominal delay improves with scaling (slower than 30 %/gen);
/// 250 mV delay is *non-monotonic* — it increases except at 32 nm —
/// because V_th wanders under the leakage-constrained flow.
pub fn fig5(ctx: &StudyContext) -> Table {
    let rows = per_design(ctx.study, ctx.supervth.clone(), |study, d| {
        let nominal = delay_at(study, d, d.nfet.v_dd);
        let sub = delay_at(study, d, Volts::new(V_SUBVT));
        (d.node.name().to_owned(), nominal, sub)
    });
    let base_nom = rows[0].1;
    let base_sub = rows[0].2;
    let mut t = Table::new(
        "Fig 5: simulated FO1 inverter delay (super-Vth scaling)",
        &[
            "Node",
            "t_p @nominal (ps)",
            "t_p @250mV (ns)",
            "nominal vs 90nm",
            "250mV vs 90nm",
        ],
    );
    for (name, nominal, sub) in rows {
        t.push_row(vec![
            name,
            fmt(nominal * 1e12, 1),
            fmt(sub * 1e9, 1),
            fmt(nominal / base_nom, 2),
            fmt(sub / base_sub, 2),
        ]);
    }
    t
}

/// Fig. 6: energy per cycle and `V_min` for a 30-inverter chain at
/// activity 0.1 (super-V_th strategy), with the `C_L·S_S²` factor
/// overlay.
///
/// Paper shape: energy falls with scaling but `V_min` *rises* ~40 mV from
/// 90 nm to 32 nm; the `C_L·S_S²` factor tracks the measured energy.
pub fn fig6(ctx: &StudyContext) -> Table {
    let meps = per_design(ctx.study, ctx.supervth.clone(), chain_mep);
    let rows: Vec<_> = ctx
        .supervth
        .iter()
        .zip(meps)
        .map(|(d, mep)| {
            let mep = mep.expect("chain MEP search failed");
            // The Eq. 8 factor uses width-normalized capacitance; scale
            // by the node's device width so it overlays the absolute
            // energy of the width-scaled chain.
            let factor = energy_factor(&d.nfet_chars) * d.node.dimension_scale();
            (
                d.node.name().to_owned(),
                mep.energy.as_femtojoules(),
                mep.v_min.as_millivolts(),
                factor,
            )
        })
        .collect();
    let e0 = rows[0].1;
    let f0 = rows[0].3;
    let mut t = Table::new(
        "Fig 6: energy/cycle and V_min, 30-inverter chain, alpha = 0.1 (super-Vth)",
        &[
            "Node",
            "E/cycle @Vmin (fJ)",
            "V_min (mV)",
            "E vs 90nm",
            "C_L*S_S^2 vs 90nm",
        ],
    );
    for (name, e, vmin, f) in rows {
        t.push_row(vec![
            name,
            fmt(e, 3),
            fmt(vmin, 0),
            fmt(e / e0, 2),
            fmt(f / f0, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_snm_degrades_at_250mv() {
        let t = fig4(StudyContext::cached());
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last: f64 = t.rows[3][2].parse().unwrap();
        // Paper: >10 % degradation 90 → 32 nm.
        assert!(
            last < 0.95 * first,
            "SNM should degrade: 90nm {first} mV vs 32nm {last} mV"
        );
        // Sub-V_th SNM magnitudes in the tens of mV.
        assert!(first > 40.0 && first < 120.0);
    }

    #[test]
    fn fig6_vmin_rises_with_scaling() {
        let t = fig6(StudyContext::cached());
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last: f64 = t.rows[3][2].parse().unwrap();
        // Paper: V_min increases by ~40 mV between 90 nm and 32 nm.
        assert!(
            last > first + 5.0,
            "V_min should rise with super-Vth scaling: {first} -> {last} mV"
        );
    }

    #[test]
    fn fig6_energy_factor_tracks_energy() {
        let t = fig6(StudyContext::cached());
        for row in &t.rows {
            let e: f64 = row[3].parse().unwrap();
            let f: f64 = row[4].parse().unwrap();
            // Eq. 8 validation: the factor tracks measured energy within
            // ~35 % (the paper's Fig. 6 shows a close match).
            assert!(
                (e - f).abs() < 0.35_f64.max(0.35 * e),
                "E {e} vs factor {f}"
            );
        }
    }
}
