//! Monte-Carlo threshold-voltage variability (extension).
//!
//! The paper's introduction motivates sub-V_th caution with the dramatic
//! growth of timing variability at low supplies. This module quantifies
//! that: Pelgrom-law random dopant fluctuation `σ_VT = A_VT/√(W·L)`
//! applied to the compact model, propagated to gate delay through the
//! exponential subthreshold I–V.
//!
//! Sample loops run on the [`subvt_engine`] thread pool. Every sample
//! draws from its own [`SplitMix64::stream`], so the population is a
//! pure function of `(seed, sample index)` — identical no matter how
//! many workers execute the sweep.

use subvt_engine::rng::SplitMix64;
use subvt_engine::trace;
use subvt_physics::device::DeviceKind;
use subvt_spice::mna::SpiceError;
use subvt_spice::mna::{dc_operating_point, dc_operating_point_from, dc_sweep, DcSolution};
use subvt_spice::netlist::Netlist;
use subvt_units::{Seconds, Volts};

use crate::inverter::CmosPair;

/// Pelgrom mismatch coefficient, volts·µm (≈3.5 mV·µm for 90 nm-class
/// oxides; scales roughly with `T_ox`).
pub fn pelgrom_coefficient(t_ox_nm: f64) -> f64 {
    1.7e-3 * t_ox_nm
}

/// Per-device `σ_VT` for a given gate area.
pub fn sigma_vth(t_ox_nm: f64, w_um: f64, l_um: f64) -> Volts {
    assert!(w_um > 0.0 && l_um > 0.0, "device area must be positive");
    Volts::new(pelgrom_coefficient(t_ox_nm) / (w_um * l_um).sqrt())
}

/// Splits `samples` into contiguous index ranges, one per engine job
/// (a few per worker so stealing can balance uneven chunks), and maps
/// `per_sample` over every index in parallel, preserving order.
fn parallel_samples<T, F>(samples: usize, per_sample: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    let executor = subvt_engine::global();
    let chunk = samples.div_ceil(executor.workers() * 4).max(16);
    let ranges: Vec<(u64, u64)> = (0..samples)
        .step_by(chunk)
        .map(|start| (start as u64, samples.min(start + chunk) as u64))
        .collect();
    let chunks = executor.map(ranges, move |(start, end)| {
        let out = (start..end).map(&per_sample).collect::<Vec<T>>();
        // Per-batch progress: long sweeps stay observable mid-flight.
        trace::add("montecarlo.batches", 1);
        trace::add("montecarlo.samples", end - start);
        out
    });
    chunks.into_iter().flatten().collect()
}

/// Summary statistics of a Monte-Carlo delay population.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayStatistics {
    /// Mean delay.
    pub mean: Seconds,
    /// Standard deviation of delay.
    pub std_dev: Seconds,
    /// `σ/µ` — the paper-motivating variability metric.
    pub sigma_over_mu: f64,
    /// All sampled delays (for downstream percentile analysis).
    pub samples: Vec<f64>,
}

/// Runs a Monte-Carlo sweep of FO1 delay under `V_th` mismatch at supply
/// `v_dd`. Deterministic for a given `seed`.
///
/// Each sample perturbs the NFET and PFET thresholds independently and
/// recomputes the analytic effective-current delay.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn delay_variability(
    pair: &CmosPair,
    v_dd: Volts,
    samples: usize,
    seed: u64,
) -> DelayStatistics {
    assert!(samples > 0, "need at least one sample");
    let _span = trace::span("montecarlo.delay")
        .attr("samples", samples)
        .attr("v_dd", v_dd.as_volts());
    let pair = pair.at_supply(v_dd);
    let l_um = pair.nfet.geometry.l_poly.get() * 1e-3;
    let sig_n = sigma_vth(pair.nfet.geometry.t_ox.get(), pair.wn_um, l_um).as_volts();
    let sig_p = sigma_vth(pair.pfet.geometry.t_ox.get(), pair.wp_um, l_um).as_volts();

    let c_l = pair.input_capacitance() + pair.output_capacitance();
    let base_n = pair.nfet_model();
    let base_p = pair.pfet_model();
    let vdd = v_dd.as_volts();
    let half = Volts::new(vdd / 2.0);
    let (wn_um, wp_um) = (pair.wn_um, pair.wp_um);

    let delays = parallel_samples(samples, move |i| {
        let mut rng = SplitMix64::stream(seed, i);
        let dn = rng.next_gaussian() * sig_n;
        let dp = rng.next_gaussian() * sig_p;
        let mut mn = base_n;
        mn.v_th_lin = Volts::new(mn.v_th_lin.as_volts() + dn);
        let mut mp = base_p;
        mp.v_th_lin = Volts::new(mp.v_th_lin.as_volts() + dp);
        let i_n = mn.drain_current(v_dd, half).get() * wn_um;
        let i_p = mp.drain_current(v_dd, half).get() * wp_um;
        core::f64::consts::LN_2 * 0.5 * (c_l * vdd / i_n + c_l * vdd / i_p)
    });

    let n = delays.len() as f64;
    let mean = delays.iter().sum::<f64>() / n;
    let var = delays.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
    let std_dev = var.sqrt();
    DelayStatistics {
        mean: Seconds::new(mean),
        std_dev: Seconds::new(std_dev),
        sigma_over_mu: std_dev / mean,
        samples: delays,
    }
}

/// Solves one perturbed drive deck warm-started from the nominal
/// operating point (cold fallback) and reads the drive-current magnitude
/// off the drain source's branch. `None` marks a solver failure; the
/// caller counts it as a failed sample.
fn perturbed_drive(template: &Netlist, nominal: &DcSolution, d_vth: f64) -> Option<f64> {
    let mut net = template.clone();
    net.for_each_mosfet_mut(|_, inst| {
        inst.model.v_th_lin = Volts::new(inst.model.v_th_lin.as_volts() + d_vth);
    });
    dc_operating_point_from(&net, nominal)
        .or_else(|_| dc_operating_point(&net))
        .ok()
        .map(|sol| sol.branch_currents[crate::delay::DRIVE_DECK_DRAIN_BRANCH].abs())
}

/// Spice-backed Monte-Carlo FO1 delay variability: the same Pelgrom
/// perturbations and Eq. 4 delay formula as [`delay_variability`], but
/// with each sample's drive currents solved by the MNA engine on a
/// per-polarity [drive deck](crate::delay) instead of evaluated from the
/// compact I–V directly.
///
/// Every sample warm-starts Newton from the *nominal* (unperturbed)
/// operating point — not from a neighboring sample — so each sample stays
/// a pure function of `(seed, index)` regardless of how the executor
/// chunks the range. Failed samples (either polarity refusing to
/// converge) are dropped from the statistics; the caller can recover the
/// failure count as `samples − stats.samples.len()`.
///
/// Returns the statistics plus per-sample wall-clock milliseconds, in
/// sample order, for bench latency quantiles. Wall times are
/// machine-dependent and must never reach deterministic output streams.
///
/// # Errors
///
/// Returns [`SpiceError`] only if the nominal decks themselves fail to
/// solve.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn spice_delay_variability(
    pair: &CmosPair,
    v_dd: Volts,
    samples: usize,
    seed: u64,
) -> Result<(DelayStatistics, Vec<f64>), SpiceError> {
    assert!(samples > 0, "need at least one sample");
    let _span = trace::span("montecarlo.spice.delay")
        .attr("samples", samples)
        .attr("v_dd", v_dd.as_volts());
    let pair = pair.at_supply(v_dd);
    let l_um = pair.nfet.geometry.l_poly.get() * 1e-3;
    let sig_n = sigma_vth(pair.nfet.geometry.t_ox.get(), pair.wn_um, l_um).as_volts();
    let sig_p = sigma_vth(pair.pfet.geometry.t_ox.get(), pair.wp_um, l_um).as_volts();
    let c_l = pair.input_capacitance() + pair.output_capacitance();
    let vdd = v_dd.as_volts();

    let deck_n = crate::delay::drive_current_deck(pair.nfet_model(), pair.wn_um, vdd);
    let deck_p = crate::delay::drive_current_deck(pair.pfet_model(), pair.wp_um, vdd);
    // One cold nominal solve per polarity; all samples warm-start here.
    let nominal_n = dc_operating_point(&deck_n)?;
    let nominal_p = dc_operating_point(&deck_p)?;

    let outcomes = parallel_samples(samples, move |i| {
        let t0 = std::time::Instant::now();
        // Identical draw order to the analytic sweep: dn then dp.
        let mut rng = SplitMix64::stream(seed, i);
        let dn = rng.next_gaussian() * sig_n;
        let dp = rng.next_gaussian() * sig_p;
        let i_n = perturbed_drive(&deck_n, &nominal_n, dn);
        let i_p = perturbed_drive(&deck_p, &nominal_p, dp);
        let delay = match (i_n, i_p) {
            (Some(i_n), Some(i_p)) => {
                core::f64::consts::LN_2 * 0.5 * (c_l * vdd / i_n + c_l * vdd / i_p)
            }
            _ => f64::NAN,
        };
        (delay, t0.elapsed().as_secs_f64() * 1e3)
    });

    let mut wall_ms = Vec::with_capacity(outcomes.len());
    let mut delays = Vec::with_capacity(outcomes.len());
    for (delay, ms) in outcomes {
        wall_ms.push(ms);
        if delay.is_finite() {
            delays.push(delay);
        }
    }
    let n = delays.len().max(1) as f64;
    let mean = delays.iter().sum::<f64>() / n;
    let var = delays.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
    let std_dev = var.sqrt();
    Ok((
        DelayStatistics {
            mean: Seconds::new(mean),
            std_dev: Seconds::new(std_dev),
            sigma_over_mu: std_dev / mean,
            samples: delays,
        },
        wall_ms,
    ))
}

/// Summary statistics of a Monte-Carlo SNM population.
#[derive(Debug, Clone, PartialEq)]
pub struct SnmStatistics {
    /// Mean SNM, volts.
    pub mean: Volts,
    /// Standard deviation, volts.
    pub std_dev: Volts,
    /// Fraction of samples with no restoring margin at all (SNM ≤ 0 or
    /// the VTC never reaches unity gain) — functional-yield proxy.
    pub failure_fraction: f64,
    /// All finite sampled SNM values, volts.
    pub samples: Vec<f64>,
}

/// Monte-Carlo inverter SNM under `V_th` mismatch, using the analytic
/// Eq. 3 VTC (fast enough for thousands of samples). Deterministic for a
/// given `seed`.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn snm_variability(pair: &CmosPair, v_dd: Volts, samples: usize, seed: u64) -> SnmStatistics {
    use crate::inverter::Vtc;
    use subvt_physics::math::linspace;

    assert!(samples > 0, "need at least one sample");
    let _span = trace::span("montecarlo.snm")
        .attr("samples", samples)
        .attr("v_dd", v_dd.as_volts());
    let pair = pair.at_supply(v_dd);
    let l_um = pair.nfet.geometry.l_poly.get() * 1e-3;
    let sig_n = sigma_vth(pair.nfet.geometry.t_ox.get(), pair.wn_um, l_um).as_volts();
    let sig_p = sigma_vth(pair.pfet.geometry.t_ox.get(), pair.wp_um, l_um).as_volts();

    let n = pair.nfet_chars();
    let p = pair.pfet_chars();
    let vt = pair.nfet.temperature.thermal_voltage().as_volts();
    let vdd = v_dd.as_volts();
    let io_n = n.i0.get() * pair.wn_um;
    let io_p = p.i0.get() * pair.wp_um;
    let v_in_grid = linspace(0.0, vdd, 101);

    // NaN marks a failed sample (no restoring margin); the sampled value
    // itself is always finite, so the marker is unambiguous.
    let outcomes = parallel_samples(samples, move |i| {
        let mut rng = SplitMix64::stream(seed, i);
        let vth_n = n.v_th_sat.as_volts() + rng.next_gaussian() * sig_n;
        let vth_p = p.v_th_sat.as_volts() + rng.next_gaussian() * sig_p;
        // Eq. 3(a) current balance with mismatched thresholds.
        let residual = |v_in: f64, v_out: f64| {
            let i_n = io_n * ((v_in - vth_n) / (n.m * vt)).exp() * (1.0 - (-v_out / vt).exp());
            let i_p = io_p
                * ((vdd - v_in - vth_p) / (p.m * vt)).exp()
                * (1.0 - (-(vdd - v_out) / vt).exp());
            i_n - i_p
        };
        let v_out: Vec<f64> = v_in_grid
            .iter()
            .map(|&vi| {
                subvt_physics::math::bisect(|vo| residual(vi, vo), 1e-9, vdd - 1e-9, 1e-10, 120)
                    .map(|r| r.x)
                    .unwrap_or(if residual(vi, vdd / 2.0) > 0.0 {
                        0.0
                    } else {
                        vdd
                    })
            })
            .collect();
        let vtc = Vtc {
            v_in: v_in_grid.clone(),
            v_out,
            v_dd: vdd,
        };
        crate::snm::snm_sample(&vtc)
    });

    let vals: Vec<f64> = outcomes.iter().copied().filter(|v| v.is_finite()).collect();
    let failures = outcomes.len() - vals.len();
    let count = vals.len().max(1) as f64;
    let mean = vals.iter().sum::<f64>() / count;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count;
    SnmStatistics {
        mean: Volts::new(mean),
        std_dev: Volts::new(var.sqrt()),
        failure_fraction: failures as f64 / samples as f64,
        samples: vals,
    }
}

/// VTC sweep resolution of the spice-backed SNM samples: enough points
/// for the gain = −1 interpolation of [`crate::snm::noise_margins`] to
/// land within a millivolt, small enough that a sample stays a few dozen
/// warm-started Newton solves.
const SPICE_SNM_VTC_POINTS: usize = 61;

/// Spice-backed Monte-Carlo inverter SNM: per sample, the compiled VTC
/// deck is re-thresholded (NFET and PFET drawn independently, same order
/// as [`snm_variability`]) and swept by the MNA engine; the margins come
/// off the solved curve via [`crate::snm::snm_sample`].
///
/// Unlike [`snm_variability`] — which inverts the closed-form Eq. 3(a)
/// balance — this path exercises the full compact model, so DIBL and
/// mobility degradation shape the sampled curves. A sample whose sweep
/// fails to converge counts toward `failure_fraction` like a
/// margin-less curve.
///
/// Returns the statistics plus per-sample wall-clock milliseconds, in
/// sample order (machine-dependent; bench artifacts only).
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn spice_snm_variability(
    pair: &CmosPair,
    v_dd: Volts,
    samples: usize,
    seed: u64,
) -> (SnmStatistics, Vec<f64>) {
    use crate::gates::OtherInput;
    use crate::inverter::Vtc;
    use crate::topology::{CellSpec, MeasurePlan, Testbench};
    use subvt_physics::math::linspace;

    assert!(samples > 0, "need at least one sample");
    let _span = trace::span("montecarlo.spice.snm")
        .attr("samples", samples)
        .attr("v_dd", v_dd.as_volts());
    let pair = pair.at_supply(v_dd);
    let l_um = pair.nfet.geometry.l_poly.get() * 1e-3;
    let sig_n = sigma_vth(pair.nfet.geometry.t_ox.get(), pair.wn_um, l_um).as_volts();
    let sig_p = sigma_vth(pair.pfet.geometry.t_ox.get(), pair.wp_um, l_um).as_volts();

    let bench = CellSpec::inverter(pair)
        .compile(&Testbench::Vtc {
            v_dd,
            points: SPICE_SNM_VTC_POINTS,
            other: OtherInput::Low,
        })
        .expect("inverter VTC always compiles");
    let MeasurePlan::DcTransfer {
        source,
        v_stop,
        points,
        output,
    } = bench.plan
    else {
        unreachable!("VTC bench compiles to a DC transfer plan");
    };
    let template = bench.net;
    let sweep = linspace(0.0, v_stop, points);

    let outcomes = parallel_samples(samples, move |i| {
        let t0 = std::time::Instant::now();
        let mut rng = SplitMix64::stream(seed, i);
        let dn = rng.next_gaussian() * sig_n;
        let dp = rng.next_gaussian() * sig_p;
        let mut net = template.clone();
        net.for_each_mosfet_mut(|_, inst| {
            let d = match inst.model.kind {
                DeviceKind::Nfet => dn,
                DeviceKind::Pfet => dp,
            };
            inst.model.v_th_lin = Volts::new(inst.model.v_th_lin.as_volts() + d);
        });
        let snm = match dc_sweep(&net, source, &sweep) {
            Ok(sols) => {
                let vtc = Vtc {
                    v_in: sweep.clone(),
                    v_out: sols.iter().map(|s| s.node_voltages[output]).collect(),
                    v_dd: v_stop,
                };
                crate::snm::snm_sample(&vtc)
            }
            Err(_) => f64::NAN,
        };
        (snm, t0.elapsed().as_secs_f64() * 1e3)
    });

    let mut wall_ms = Vec::with_capacity(outcomes.len());
    let mut vals = Vec::with_capacity(outcomes.len());
    for (snm, ms) in outcomes {
        wall_ms.push(ms);
        if snm.is_finite() {
            vals.push(snm);
        }
    }
    let failures = samples - vals.len();
    let count = vals.len().max(1) as f64;
    let mean = vals.iter().sum::<f64>() / count;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count;
    (
        SnmStatistics {
            mean: Volts::new(mean),
            std_dev: Volts::new(var.sqrt()),
            failure_fraction: failures as f64 / samples as f64,
            samples: vals,
        },
        wall_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_physics::device::DeviceParams;

    fn pair() -> CmosPair {
        CmosPair::balanced(DeviceParams::reference_90nm_nfet())
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = delay_variability(&pair(), Volts::new(0.25), 100, 42);
        let b = delay_variability(&pair(), Volts::new(0.25), 100, 42);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn different_seeds_differ() {
        let a = delay_variability(&pair(), Volts::new(0.25), 50, 1);
        let b = delay_variability(&pair(), Volts::new(0.25), 50, 2);
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn subthreshold_variability_much_larger_than_nominal() {
        // The paper's core variability argument: σ/µ explodes at low V_dd
        // because delay depends exponentially on V_th.
        let p = pair();
        let sub = delay_variability(&p, Volts::new(0.25), 400, 7);
        let nom = delay_variability(&p, Volts::new(1.2), 400, 7);
        assert!(
            sub.sigma_over_mu > 3.0 * nom.sigma_over_mu,
            "sub {} vs nominal {}",
            sub.sigma_over_mu,
            nom.sigma_over_mu
        );
    }

    #[test]
    fn sigma_vth_shrinks_with_area() {
        let small = sigma_vth(2.1, 0.5, 0.065);
        let large = sigma_vth(2.1, 2.0, 0.065);
        assert!(large.as_volts() < small.as_volts());
        assert!((small.as_volts() / large.as_volts() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn snm_variability_is_deterministic_and_positive() {
        let stats = snm_variability(&pair(), Volts::new(0.25), 60, 3);
        let again = snm_variability(&pair(), Volts::new(0.25), 60, 3);
        assert_eq!(stats.samples, again.samples);
        assert!(stats.mean.as_volts() > 0.03 && stats.mean.as_volts() < 0.12);
        assert!(stats.std_dev.as_volts() > 0.0);
    }

    #[test]
    fn snm_spread_grows_at_lower_supply_relative_to_mean() {
        let p = pair();
        let lo = snm_variability(&p, Volts::new(0.20), 120, 9);
        let hi = snm_variability(&p, Volts::new(0.35), 120, 9);
        let rel_lo = lo.std_dev.as_volts() / lo.mean.as_volts();
        let rel_hi = hi.std_dev.as_volts() / hi.mean.as_volts();
        assert!(
            rel_lo > rel_hi,
            "relative SNM spread must grow at low V_dd: {rel_lo} vs {rel_hi}"
        );
    }

    #[test]
    fn spice_delay_matches_analytic_per_sample() {
        // Same seed → same perturbations; the spice drive deck pins every
        // terminal, so each sample's current differs from the compact
        // model only by the GMIN leakage at the drain node (~1e-4
        // relative in deep subthreshold).
        let p = pair();
        let v = Volts::new(0.25);
        let analytic = delay_variability(&p, v, 48, 42);
        let (spice, wall_ms) = spice_delay_variability(&p, v, 48, 42).unwrap();
        assert_eq!(spice.samples.len(), 48, "no sample may fail");
        assert_eq!(wall_ms.len(), 48);
        for (a, s) in analytic.samples.iter().zip(&spice.samples) {
            assert!(
                ((a - s) / a).abs() < 1e-2,
                "analytic {a:.6e} vs spice {s:.6e}"
            );
        }
    }

    #[test]
    fn spice_delay_deterministic_for_fixed_seed() {
        let p = pair();
        let (a, _) = spice_delay_variability(&p, Volts::new(0.3), 40, 7).unwrap();
        let (b, _) = spice_delay_variability(&p, Volts::new(0.3), 40, 7).unwrap();
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn spice_snm_deterministic_and_close_to_analytic() {
        let p = pair();
        let v = Volts::new(0.25);
        let (spice, wall_ms) = spice_snm_variability(&p, v, 24, 3);
        let (again, _) = spice_snm_variability(&p, v, 24, 3);
        assert_eq!(spice.samples, again.samples);
        assert_eq!(wall_ms.len(), 24);
        assert!(spice.std_dev.as_volts() > 0.0);
        // Eq. 3(a) and the full compact model agree on the margin scale.
        let analytic = snm_variability(&p, v, 24, 3);
        let ratio = spice.mean.as_volts() / analytic.mean.as_volts();
        assert!(
            (0.6..1.6).contains(&ratio),
            "spice {} vs analytic {} (ratio {ratio})",
            spice.mean.as_volts(),
            analytic.mean.as_volts()
        );
    }

    #[test]
    fn mean_close_to_nominal_delay() {
        let p = pair();
        let stats = delay_variability(&p, Volts::new(0.3), 800, 11);
        let nominal = crate::delay::analytic_fo1_delay(&p, Volts::new(0.3)).get();
        // Lognormal-ish skew pushes the mean above nominal, but within 2x.
        let ratio = stats.mean.get() / nominal;
        assert!((0.8..2.0).contains(&ratio), "ratio {ratio}");
    }
}
