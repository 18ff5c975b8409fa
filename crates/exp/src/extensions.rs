//! Extension studies beyond the paper's figures — the "future work"
//! directions its text motivates: temperature sensitivity, the
//! oxide-scaling ablation behind its central claim, SRAM bit-line limits
//! (its §2.3.2 / ref \[16\]), V_th-mismatch variability (its §1), and
//! stacked-gate noise margins.

use subvt_circuits::chain::InverterChain;
use subvt_circuits::delay::analytic_fo1_delay;
use subvt_circuits::gates::GateKind;
use subvt_circuits::inverter::analytic_vtc;
use subvt_circuits::montecarlo::{delay_variability, snm_variability};
use subvt_circuits::snm::noise_margins;
use subvt_circuits::sram::SramCell;
use subvt_circuits::topology::{
    cached_gate_leakage, cached_gate_snm, cached_inverter_vtc, cached_ring_oscillation,
};
use subvt_core::{SuperVthStrategy, TechNode};
use subvt_model::DeviceModel;
use subvt_physics::device::{DeviceKind, DeviceParams};
use subvt_units::{Temperature, Volts};

use crate::context::{Study, StudyContext, V_SUBVT};
use crate::report;
use crate::runner::RunError;
use crate::table::{fmt, Table};

/// Extension A — temperature: subthreshold swing, leakage and the
/// minimum-energy point of the reference device from −25 °C to 100 °C.
///
/// Expected physics: `S_S ∝ T`, `I_off` exponential in `T`, and `V_min`
/// rising with temperature (leakage energy grows).
pub fn ext_temperature(study: &Study) -> Result<Table, RunError> {
    let mut t = Table::new(
        "Ext A: temperature dependence, 90 nm reference device",
        &[
            "T (degC)",
            "S_S (mV/dec)",
            "I_off (pA/um)",
            "V_min (mV)",
            "E@Vmin (fJ)",
        ],
    );
    let model = study.model();
    for celsius in [-25.0, 0.0, 25.0, 50.0, 75.0, 100.0] {
        let mut dev = DeviceParams::reference_90nm_nfet();
        dev.temperature = Temperature::from_celsius(celsius);
        let ch = model.characterize(&dev)?;
        let pair = subvt_circuits::CmosPair::balanced_with(model, dev)?;
        let mep = InverterChain::paper_chain(pair).minimum_energy_point();
        t.push_row(vec![
            fmt(celsius, 0),
            fmt(ch.s_s.get(), 1),
            fmt(ch.i_off.as_picoamps(), 1),
            fmt(mep.v_min.as_millivolts(), 0),
            fmt(mep.energy.as_femtojoules(), 3),
        ]);
    }
    Ok(t)
}

/// Extension B — the oxide-scaling ablation: re-run the super-V_th flow
/// with `T_ox` hypothetically scaling at the full 30 %/generation and
/// compare `S_S` against the paper's observed 10 %/generation.
///
/// This isolates the paper's root cause: if the oxide had kept pace,
/// performance-driven scaling would NOT wreck the subthreshold swing.
pub fn ext_oxide_scaling(study: &Study) -> Result<Table, RunError> {
    let paper = SuperVthStrategy::default();
    let ideal = SuperVthStrategy::with_ideal_oxide_scaling();
    let mut t = Table::new(
        "Ext B: oxide-scaling ablation under super-Vth scaling (S_S, mV/dec)",
        &[
            "Node",
            "T_ox -10%/gen (paper)",
            "T_ox -30%/gen (ideal)",
            "S_S paper-rate",
            "S_S ideal-rate",
        ],
    );
    let model = study.model();
    for node in TechNode::ALL {
        let d_paper = paper.design_device_with(node, DeviceKind::Nfet, model)?;
        let d_ideal = ideal.design_device_with(node, DeviceKind::Nfet, model)?;
        t.push_row(vec![
            node.name().to_owned(),
            fmt(d_paper.geometry.t_ox.get(), 2),
            fmt(d_ideal.geometry.t_ox.get(), 2),
            fmt(model.characterize(&d_paper)?.s_s.get(), 1),
            fmt(model.characterize(&d_ideal)?.s_s.get(), 1),
        ]);
    }
    Ok(t)
}

/// Extension C — SRAM under scaling: 6T hold/read butterfly SNM and
/// maximum bits per bit-line at 250 mV, both strategies at each node
/// (the paper's §2.3.2 bit-line argument, quantified).
pub fn ext_sram(ctx: &StudyContext) -> Result<Table, RunError> {
    let v = Volts::new(V_SUBVT);
    let mut t = Table::new(
        "Ext C: 6T SRAM at 250 mV under both scaling strategies",
        &[
            "Node",
            "hold SNM super (mV)",
            "read SNM super (mV)",
            "bits/line super",
            "bits/line sub",
        ],
    );
    for (sup, sub) in ctx.supervth.iter().zip(&ctx.subvth) {
        let cell_sup = SramCell::subthreshold_cell(ctx.study.pair(sup));
        let cell_sub = SramCell::subthreshold_cell(ctx.study.pair(sub));
        let hold = cell_sup
            .hold_snm(v, 121)
            .map(|s| s * 1e3)
            .unwrap_or(f64::NAN);
        let read = cell_sup
            .read_snm(v, 121)
            .map(|s| s * 1e3)
            .unwrap_or(f64::NAN);
        t.push_row(vec![
            sup.node.name().to_owned(),
            fmt(hold, 1),
            fmt(read, 1),
            cell_sup.max_bits_per_bitline(v, 10.0).to_string(),
            cell_sub.max_bits_per_bitline(v, 10.0).to_string(),
        ]);
    }
    Ok(t)
}

/// Extension D — variability: Pelgrom V_th-mismatch Monte Carlo on FO1
/// delay (σ/µ) and inverter SNM for the 90 nm and 32 nm super-V_th
/// devices across supplies — quantifying the §1 claim that "timing
/// variability grows dramatically as V_dd reduces".
pub fn ext_variability(ctx: &StudyContext) -> Result<Table, RunError> {
    let mut t = Table::new(
        "Ext D: V_th-mismatch Monte Carlo (400 samples, seed 2007)",
        &[
            "V_dd (mV)",
            "delay sigma/mu 90nm (%)",
            "delay sigma/mu 32nm (%)",
            "SNM sigma 32nm (mV)",
            "SNM fail 32nm (%)",
        ],
    );
    let p90 = ctx.study.pair(&ctx.supervth[0]);
    let p32 = ctx.study.pair(&ctx.supervth[3]);
    for mv in [200.0, 250.0, 300.0, 400.0, 1200.0] {
        let v = Volts::from_millivolts(mv);
        let d90 = delay_variability(&p90, v, 400, 2007);
        let d32 = delay_variability(&p32, v, 400, 2007);
        let s32 = snm_variability(&p32, v, 200, 2007);
        t.push_row(vec![
            fmt(mv, 0),
            fmt(d90.sigma_over_mu * 100.0, 1),
            fmt(d32.sigma_over_mu * 100.0, 1),
            fmt(s32.std_dev.as_millivolts(), 1),
            fmt(s32.failure_fraction * 100.0, 1),
        ]);
    }
    Ok(t)
}

/// Monte-Carlo variability routed through the circuit-backend seam:
/// `--circuit-backend spice` re-solves every Pelgrom-perturbed sample
/// with the MNA engine (warm-started from the nominal operating point),
/// while the default analytic path evaluates the same populations in
/// closed form. Reduced sample counts versus Ext D keep the spice path
/// interactive.
///
/// Wall-clock is a side channel only: total per-backend runtimes land in
/// the `montecarlo.spice_ms` / `montecarlo.analytic_ms` gauges and the
/// per-sample solve latencies in the `montecarlo.sample_ms` histogram
/// and quantile gauges ([`report::record_sample_ms`], the source of
/// `BENCH_spice.json`)
/// — the table itself is a deterministic function of `(backend, seed)`,
/// so warm- and cold-started runs stay byte-identical.
pub fn montecarlo(ctx: &StudyContext) -> Result<Table, RunError> {
    const DELAY_SAMPLES: usize = 200;
    const SNM_SAMPLES: usize = 100;
    const SEED: u64 = 2007;
    let circuit = ctx.study.circuit.instance();
    let title = format!(
        "Monte Carlo via `{}` circuit backend ({DELAY_SAMPLES} delay / {SNM_SAMPLES} SNM samples, seed {SEED})",
        circuit.cache_id()
    );
    let mut t = Table::new(
        &title,
        &[
            "V_dd (mV)",
            "delay mean (ns)",
            "delay sigma/mu (%)",
            "SNM mean (mV)",
            "SNM sigma (mV)",
            "SNM fail (%)",
        ],
    );
    let pair = ctx.study.pair(&ctx.supervth[0]);
    let supplies = [250.0, 300.0, 400.0];
    let mut primary_ms = 0.0;
    let mut failures = 0u64;
    let mut sample_ms = Vec::new();
    for mv in supplies {
        let v = Volts::from_millivolts(mv);
        let t0 = std::time::Instant::now();
        let (d, d_wall) = circuit.delay_variability(&pair, v, DELAY_SAMPLES, SEED)?;
        let (s, s_wall) = circuit.snm_variability(&pair, v, SNM_SAMPLES, SEED)?;
        primary_ms += t0.elapsed().as_secs_f64() * 1e3;
        sample_ms.extend(d_wall.iter().chain(&s_wall));
        failures += (DELAY_SAMPLES - d.samples.len()) as u64;
        failures += (SNM_SAMPLES - s.samples.len()) as u64;
        t.push_row(vec![
            fmt(mv, 0),
            fmt(d.mean.get() * 1e9, 2),
            fmt(d.sigma_over_mu * 100.0, 1),
            fmt(s.mean.as_millivolts(), 1),
            fmt(s.std_dev.as_millivolts(), 1),
            fmt(s.failure_fraction * 100.0, 1),
        ]);
    }
    report::record_sample_ms(subvt_engine::trace::global(), &sample_ms);
    subvt_engine::trace::add("montecarlo.failures", failures);
    if ctx.study.circuit == subvt_circuits::CircuitBackendKind::Spice {
        subvt_engine::trace::gauge("montecarlo.spice_ms", primary_ms);
        // Time the identical workload on the analytic backend so the
        // bench artifact can record the spice-over-analytic cost ratio.
        let reference = subvt_circuits::CircuitBackendKind::Analytic.instance();
        let t0 = std::time::Instant::now();
        for mv in supplies {
            let v = Volts::from_millivolts(mv);
            reference.delay_variability(&pair, v, DELAY_SAMPLES, SEED)?;
            reference.snm_variability(&pair, v, SNM_SAMPLES, SEED)?;
        }
        let analytic_ms = t0.elapsed().as_secs_f64() * 1e3;
        subvt_engine::trace::gauge("montecarlo.analytic_ms", analytic_ms);
        subvt_engine::trace::gauge(
            "montecarlo.spice_over_analytic",
            primary_ms / analytic_ms.max(f64::MIN_POSITIVE),
        );
    } else {
        subvt_engine::trace::gauge("montecarlo.analytic_ms", primary_ms);
    }
    Ok(t)
}

/// Extension E — stacked gates: worst-case NAND2/NOR2 noise margins and
/// per-input-vector NAND2 leakage at 250 mV across the super-V_th nodes,
/// alongside the inverter (Fig. 4's story extended to real logic).
///
/// The leakage columns quantify the subthreshold *stack effect*
/// (Mukhopadhyay et al.): with both NAND inputs low the two series-off
/// NFETs self-reverse-bias, so `I(00)` sits well below the single-off
/// `I(01)` vector — the ratio is the stack factor.
pub fn ext_gates(ctx: &StudyContext) -> Result<Table, RunError> {
    let v = Volts::new(V_SUBVT);
    let mut t = Table::new(
        "Ext E: gate library at 250 mV (super-Vth scaling)",
        &[
            "Node",
            "inverter SNM (mV)",
            "NAND2 SNM (mV)",
            "NOR2 SNM (mV)",
            "NAND I(00) (pA)",
            "NAND I(01) (pA)",
            "stack factor",
        ],
    );
    for d in &ctx.supervth {
        let pair = ctx.study.pair(d);
        let inv = crate::figs_circuit::snm_at(&ctx.study, d, v) * 1e3;
        let nand = cached_gate_snm(&pair, GateKind::Nand2, v, 121)
            .map(|s| s * 1e3)
            .unwrap_or(f64::NAN);
        let nor = cached_gate_snm(&pair, GateKind::Nor2, v, 121)
            .map(|s| s * 1e3)
            .unwrap_or(f64::NAN);
        let i00 =
            cached_gate_leakage(&pair, GateKind::Nand2, v, (false, false)).unwrap_or(f64::NAN);
        let i01 = cached_gate_leakage(&pair, GateKind::Nand2, v, (false, true)).unwrap_or(f64::NAN);
        t.push_row(vec![
            d.node.name().to_owned(),
            fmt(inv, 1),
            fmt(nand, 1),
            fmt(nor, 1),
            fmt(i00 * 1e12, 2),
            fmt(i01 * 1e12, 2),
            fmt(i01 / i00, 2),
        ]);
    }
    Ok(t)
}

/// Extension G — ring oscillator: 5-stage ring frequency at 250 mV per
/// super-V_th node as an independent cross-check of the FO1 delay chain
/// (`f_osc = 1/(2·N·t_p)` ⇒ the implied stage delay should track the
/// analytic Eq. 4 estimate within its loading factor).
pub fn ext_ringosc(ctx: &StudyContext) -> Result<Table, RunError> {
    const STAGES: usize = 5;
    const STEPS: usize = 1500;
    let v = Volts::new(V_SUBVT);
    let mut t = Table::new(
        "Ext G: 5-stage ring oscillator at 250 mV (super-Vth scaling)",
        &[
            "Node",
            "f_osc (kHz)",
            "stage delay (ns)",
            "analytic FO1 (ns)",
            "ratio",
        ],
    );
    for d in &ctx.supervth {
        let pair = ctx.study.pair(d);
        let tp_analytic = analytic_fo1_delay(&pair, v).get();
        let (f_khz, stage_ns, ratio) = match cached_ring_oscillation(&pair, v, STAGES, STEPS) {
            Ok(osc) => (
                1e-3 / osc.period.get(),
                osc.stage_delay.get() * 1e9,
                osc.stage_delay.get() / tp_analytic,
            ),
            Err(_) => (f64::NAN, f64::NAN, f64::NAN),
        };
        t.push_row(vec![
            d.node.name().to_owned(),
            fmt(f_khz, 1),
            fmt(stage_ns, 1),
            fmt(tp_analytic * 1e9, 1),
            fmt(ratio, 2),
        ]);
    }
    Ok(t)
}

/// Extension H — temperature sweep of the paper's core circuit metrics:
/// the 90 nm super-V_th inverter's swing, SNM (SPICE and analytic
/// Eq. 3(b), parity-checked side by side) and minimum-energy point from
/// 250 K to 400 K. The paper holds temperature fixed; this opens the
/// knob the physics layer always carried.
pub fn ext_temp(ctx: &StudyContext) -> Result<Table, RunError> {
    let v = Volts::new(V_SUBVT);
    let d90 = &ctx.supervth[0];
    let mut t = Table::new(
        "Ext H: 90 nm super-Vth inverter vs temperature (250 mV)",
        &[
            "T (K)",
            "S_S (mV/dec)",
            "SNM spice (mV)",
            "SNM analytic (mV)",
            "V_min (mV)",
            "E@Vmin (fJ)",
        ],
    );
    for kelvin in [250.0, 275.0, 300.0, 325.0, 350.0, 375.0, 400.0] {
        let temp = Temperature::from_kelvin(kelvin);
        let pair = ctx.study.pair(d90).at_temperature(temp);
        let ss = pair.nfet_chars().s_s.get();
        let snm_spice = cached_inverter_vtc(&pair, v, 121)
            .ok()
            .and_then(|vtc| noise_margins(&vtc))
            .map(|nm| nm.snm() * 1e3)
            .unwrap_or(f64::NAN);
        let snm_analytic = noise_margins(&analytic_vtc(&pair, v, 121))
            .map(|nm| nm.snm() * 1e3)
            .unwrap_or(f64::NAN);
        let mep = InverterChain::paper_chain(pair).minimum_energy_point();
        t.push_row(vec![
            fmt(kelvin, 0),
            fmt(ss, 1),
            fmt(snm_spice, 1),
            fmt(snm_analytic, 1),
            fmt(mep.v_min.as_millivolts(), 0),
            fmt(mep.energy.as_femtojoules(), 3),
        ]);
    }
    Ok(t)
}

/// Extension F — backend cross-validation: the 90 nm reference NFET
/// characterized by the analytic compact model, the anchored coarse-mesh
/// TCAD backend, and the deck-corrected direct TCAD backend (every 2-D
/// sweep recalled through the `tcad.extract` / `tcad.model` caches).
///
/// Expected shape: the anchored backend transfers the 2-D swing/DIBL
/// shape (S_S within a few percent of analytic), while the direct
/// backend additionally reports deck-corrected V_th and currents —
/// near-identical at this anchor device by construction.
pub fn ext_backends() -> Result<Table, RunError> {
    let dev = DeviceParams::reference_90nm_nfet();
    let base = subvt_model::analytic().characterize(&dev)?;
    let models: [&'static dyn DeviceModel; 3] = [
        subvt_model::analytic(),
        &subvt_tcad::model::TCAD_COARSE,
        &subvt_tcad::model::TCAD_COARSE_DIRECT,
    ];
    let mut t = Table::new(
        "Ext F: device-model backends, 90 nm reference NFET",
        &[
            "Backend",
            "S_S (mV/dec)",
            "V_th,sat (mV)",
            "I_off (pA/um)",
            "DIBL (mV/V)",
            "dlog10 I_off",
        ],
    );
    for m in models {
        let ch = m.characterize(&dev)?;
        t.push_row(vec![
            m.cache_id(),
            fmt(ch.s_s.get(), 1),
            fmt(ch.v_th_sat.as_millivolts(), 0),
            fmt(ch.i_off.as_picoamps(), 1),
            fmt(ch.dibl * 1e3, 0),
            fmt((ch.i_off.get() / base.i_off.get()).log10(), 3),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_trends() {
        let t = ext_temperature(&Study::default()).unwrap();
        let ss: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let ioff: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(
            ss.windows(2).all(|w| w[1] > w[0]),
            "S_S rises with T: {ss:?}"
        );
        assert!(
            ioff.windows(2).all(|w| w[1] > w[0]),
            "I_off rises with T: {ioff:?}"
        );
        // Leakage grows orders of magnitude over 125 °C.
        assert!(ioff[5] > 50.0 * ioff[0]);
    }

    #[test]
    fn oxide_ablation_confirms_papers_root_cause() {
        let t = ext_oxide_scaling(&Study::default()).unwrap();
        // At 32 nm the ideal-oxide flow must show materially better S_S
        // than the paper-rate flow.
        let paper_32: f64 = t.rows[3][3].parse().unwrap();
        let ideal_32: f64 = t.rows[3][4].parse().unwrap();
        assert!(
            ideal_32 < paper_32 - 3.0,
            "ideal oxide scaling must rescue S_S: {ideal_32} vs {paper_32}"
        );
    }

    #[test]
    fn sram_bits_per_line_shrink_under_supervth() {
        let t = ext_sram(StudyContext::cached()).unwrap();
        let first: f64 = t.rows[0][3].parse().unwrap();
        let last: f64 = t.rows[3][3].parse().unwrap();
        assert!(
            last < first,
            "bits/line must shrink with super-Vth scaling: {first} -> {last}"
        );
        // The sub-Vth strategy holds more bits per line at 32 nm.
        let sub_last: f64 = t.rows[3][4].parse().unwrap();
        assert!(sub_last > last, "sub-Vth {sub_last} vs super {last}");
    }

    #[test]
    fn variability_explodes_at_low_supply() {
        let t = ext_variability(StudyContext::cached()).unwrap();
        let lowest: f64 = t.rows[0][2].parse().unwrap(); // 200 mV, 32 nm
        let nominal: f64 = t.rows[4][2].parse().unwrap(); // 1.2 V, 32 nm
        assert!(
            lowest > 3.0 * nominal,
            "sigma/mu at 200 mV ({lowest} %) must dwarf nominal ({nominal} %)"
        );
    }

    #[test]
    fn montecarlo_experiment_tracks_backend_and_supply() {
        let t = montecarlo(StudyContext::cached()).unwrap();
        assert!(t.title.contains("analytic"), "default backend: {}", t.title);
        assert_eq!(t.rows.len(), 3);
        // Delay variability falls and SNM mean grows as V_dd rises.
        let sig: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(sig.windows(2).all(|w| w[1] < w[0]), "sigma/mu {sig:?}");
        let snm: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(snm.windows(2).all(|w| w[1] > w[0]), "snm {snm:?}");
    }

    #[test]
    fn gate_library_shows_margin_ordering_and_stack_effect() {
        let t = ext_gates(StudyContext::cached()).unwrap();
        for row in &t.rows {
            let inv: f64 = row[1].parse().unwrap();
            let nand: f64 = row[2].parse().unwrap();
            let nor: f64 = row[3].parse().unwrap();
            assert!(
                nand < nor && nor < inv,
                "worst-case SNM must order NAND < NOR < inverter: {row:?}"
            );
            let stack: f64 = row[6].parse().unwrap();
            assert!(
                (1.5..=4.0).contains(&stack),
                "stack factor out of subthreshold range: {stack}"
            );
        }
    }

    #[test]
    fn ring_oscillator_tracks_analytic_fo1() {
        let t = ext_ringosc(StudyContext::cached()).unwrap();
        let mut f_prev = f64::INFINITY;
        for row in &t.rows {
            let f_khz: f64 = row[1].parse().unwrap();
            assert!(f_khz < f_prev, "f_osc must fall with scaling: {row:?}");
            f_prev = f_khz;
            let ratio: f64 = row[4].parse().unwrap();
            assert!(
                (0.5..=3.0).contains(&ratio),
                "measured/analytic stage-delay ratio out of range: {ratio}"
            );
        }
    }

    #[test]
    fn temperature_sweep_degrades_margins_and_raises_vmin() {
        let t = ext_temp(StudyContext::cached()).unwrap();
        let ss: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let snm: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let vmin: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(
            ss.windows(2).all(|w| w[1] > w[0]),
            "S_S rises with T: {ss:?}"
        );
        assert!(
            snm.windows(2).all(|w| w[1] < w[0]),
            "SNM falls with T: {snm:?}"
        );
        assert!(
            vmin.windows(2).all(|w| w[1] > w[0]),
            "V_min rises with T: {vmin:?}"
        );
    }
}
