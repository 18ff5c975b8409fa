//! Terminal-characteristic extraction: I_d–V_g sweeps, inverse
//! subthreshold slope, constant-current threshold, off-current and DIBL.

use subvt_physics::device::DeviceParams;
use subvt_physics::math::interp1;

use crate::device::{MeshDensity, Mosfet2d};
use crate::gummel::{DeviceSimulator, TcadError};

/// A sampled transfer characteristic at fixed `V_ds`.
#[derive(Debug, Clone, PartialEq)]
pub struct IdVg {
    /// Gate voltages, ascending, volts.
    pub v_g: Vec<f64>,
    /// Drain currents, A/µm.
    pub i_d: Vec<f64>,
    /// Drain bias, volts.
    pub v_d: f64,
}

impl IdVg {
    /// Gate voltage at which the current crosses `i_target`
    /// (log-interpolated). `None` outside the swept range, for a
    /// non-positive target, or when the sweep has fewer than two points
    /// (interpolation on an empty or single-point curve is undefined).
    pub fn v_g_at(&self, i_target: f64) -> Option<f64> {
        if i_target <= 0.0 || self.i_d.len() < 2 || self.v_g.len() != self.i_d.len() {
            return None;
        }
        let logs: Vec<f64> = self.i_d.iter().map(|i| i.max(1e-30).log10()).collect();
        let lt = i_target.log10();
        if lt < logs[0] || lt > logs[logs.len() - 1] {
            return None;
        }
        // Current is monotone in V_g; interpolate V_g over log10(I).
        Some(interp1(&logs, &self.v_g, lt))
    }

    /// Inverse subthreshold slope in mV/dec, measured between two
    /// current levels (defaults used by [`sweep_and_extract`] are one and
    /// three decades above the off-current). `None` when either level is
    /// outside the sweep, the levels coincide, or the sweep is degenerate
    /// (see [`IdVg::v_g_at`]).
    pub fn swing_between(&self, i_lo: f64, i_hi: f64) -> Option<f64> {
        let v_lo = self.v_g_at(i_lo)?;
        let v_hi = self.v_g_at(i_hi)?;
        let decades = (i_hi / i_lo).log10();
        if decades == 0.0 {
            return None;
        }
        Some((v_hi - v_lo) / decades * 1.0e3)
    }
}

/// Extracted device metrics from 2-D simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extraction {
    /// Inverse subthreshold slope, mV/dec.
    pub s_s: f64,
    /// Constant-current threshold at saturation drain bias, volts.
    pub v_th_sat: f64,
    /// Off-current at `V_g = 0`, saturation drain bias, A/µm.
    pub i_off: f64,
    /// On-current at `V_g = V_d = V_dd`, A/µm.
    pub i_on: f64,
    /// DIBL in V/V between the linear and saturation sweeps.
    pub dibl: f64,
}

/// Sweeps `I_d(V_g)` at fixed drain bias.
///
/// # Errors
///
/// [`TcadError::InvalidSweep`] for a degenerate spec (non-positive or
/// non-finite step / end point); otherwise propagates [`TcadError`]
/// from any bias point.
pub fn id_vg(
    sim: &mut DeviceSimulator,
    v_d: f64,
    v_g_max: f64,
    step: f64,
) -> Result<IdVg, TcadError> {
    if !(step.is_finite() && v_g_max.is_finite() && step > 0.0 && v_g_max > 0.0) {
        return Err(TcadError::InvalidSweep {
            step,
            v_max: v_g_max,
        });
    }
    let _span = subvt_engine::trace::span("tcad.id_vg").attr("v_d", v_d);
    let mut v_g = Vec::new();
    let mut i_d = Vec::new();
    sim.set_bias(0.0, v_d)?;
    let steps = (v_g_max / step).round() as usize;
    for k in 0..=steps {
        let vg = v_g_max * k as f64 / steps as f64;
        sim.set_bias(vg, v_d)?;
        v_g.push(vg);
        i_d.push(sim.drain_current());
    }
    Ok(IdVg { v_g, i_d, v_d })
}

/// A sampled output characteristic at fixed `V_gs`.
#[derive(Debug, Clone, PartialEq)]
pub struct IdVd {
    /// Drain voltages, ascending, volts.
    pub v_d: Vec<f64>,
    /// Drain currents, A/µm.
    pub i_d: Vec<f64>,
    /// Gate bias, volts.
    pub v_g: f64,
}

impl IdVd {
    /// Output conductance `dI_d/dV_d` at the last (highest-V_d) segment —
    /// a saturation-quality metric. `None` on curves with fewer than
    /// two points or mismatched vectors (the slope is undefined there).
    pub fn saturation_conductance(&self) -> Option<f64> {
        let n = self.v_d.len();
        if n < 2 || self.i_d.len() != n {
            return None;
        }
        Some((self.i_d[n - 1] - self.i_d[n - 2]) / (self.v_d[n - 1] - self.v_d[n - 2]))
    }
}

/// Sweeps `I_d(V_d)` at fixed gate bias — the output characteristic.
///
/// # Errors
///
/// [`TcadError::InvalidSweep`] for a degenerate spec; otherwise
/// propagates [`TcadError`] from any bias point.
pub fn id_vd(
    sim: &mut DeviceSimulator,
    v_g: f64,
    v_d_max: f64,
    step: f64,
) -> Result<IdVd, TcadError> {
    if !(step.is_finite() && v_d_max.is_finite() && step > 0.0 && v_d_max > 0.0) {
        return Err(TcadError::InvalidSweep {
            step,
            v_max: v_d_max,
        });
    }
    let mut v_d = Vec::new();
    let mut i_d = Vec::new();
    sim.set_bias(v_g, 0.0)?;
    let steps = (v_d_max / step).round() as usize;
    for k in 0..=steps {
        let vd = v_d_max * k as f64 / steps as f64;
        sim.set_bias(v_g, vd)?;
        v_d.push(vd);
        i_d.push(sim.drain_current());
    }
    Ok(IdVd { v_d, i_d, v_g })
}

impl subvt_engine::Blob for Extraction {
    fn encode(&self) -> Vec<f64> {
        vec![self.s_s, self.v_th_sat, self.i_off, self.i_on, self.dibl]
    }
    fn decode(record: &[f64]) -> Option<Self> {
        match record {
            [s_s, v_th_sat, i_off, i_on, dibl] => Some(Self {
                s_s: *s_s,
                v_th_sat: *v_th_sat,
                i_off: *i_off,
                i_on: *i_on,
                dibl: *dibl,
            }),
            _ => None,
        }
    }
}

/// Stable cache key covering every input that determines an
/// [`Extraction`]: the full parameter set (via the canonical
/// [`subvt_engine::Keyed`] stream shared with the analytic backend's
/// cache keys), the mesh density and the sweep spec. The schema tag is
/// versioned by the crate's solver revision, which the `tcad.model` tags
/// and [`crate::TcadModel`]'s `cache_id` share — bump it whenever the
/// solver or the extraction recipe changes results.
pub fn extraction_key(params: &DeviceParams, density: MeshDensity, step: f64) -> u64 {
    subvt_engine::KeyBuilder::new(concat!("tcad.extract.", solver_revision!()))
        .keyed(params)
        .str(density.as_str())
        .f64(step)
        .finish()
}

/// Runs the full characterization: a linear-region sweep
/// (`V_d = 50 mV`) and a saturation sweep (`V_d = V_dd`), then extracts
/// swing, threshold, off-current, on-current and DIBL.
///
/// The two sweeps are independent (each runs its own simulator and
/// walks its own Gummel continuation) and are submitted as two jobs on
/// the engine pool, so they overlap only when another worker is free.
/// Under `repro --backend tcad` none is: the anchor calibration runs
/// inside one flow's job while the other workers wait on the same
/// calibration, and that worker runs both sweeps one after the other.
/// The finished extraction is stored in the process-wide
/// content-addressed cache, so repeated characterizations of one
/// device — e.g. across experiments — solve the 2-D device exactly
/// once.
///
/// The constant-current threshold criterion is the industry-standard
/// `I_d = 100 nA · W/L_eff` (per µm of width).
///
/// A standard-mesh characterization that fails even after the Gummel
/// ladder falls back to the coarse mesh (the final
/// [`subvt_engine::RecoveryStep::CoarseMeshFallback`] rung) before the
/// failure is surfaced: a lower-fidelity extraction beats losing the
/// whole figure.
///
/// # Errors
///
/// Propagates [`TcadError`] from the sweeps once the ladder (including
/// the coarse-mesh fallback) is exhausted.
pub fn sweep_and_extract(
    params: &DeviceParams,
    density: MeshDensity,
) -> Result<Extraction, TcadError> {
    let step = 0.05;
    let key = extraction_key(params, density, step);
    let params = *params;
    subvt_engine::global_cache().try_get_or_compute("tcad.extract", key, move || {
        match sweep_and_extract_uncached(&params, density, step) {
            Ok(ext) => Ok(ext),
            Err(err) if density == MeshDensity::Standard => {
                let fallback = sweep_and_extract_uncached(&params, MeshDensity::Coarse, step);
                subvt_engine::recovery::record(
                    "tcad.extract",
                    subvt_engine::RecoveryStep::CoarseMeshFallback,
                    format!("l_poly={}nm: {err}", params.geometry.l_poly.get()),
                    fallback.is_ok(),
                );
                // If the coarse mesh also fails, surface the original
                // standard-mesh failure.
                fallback.map_err(|_| err)
            }
            Err(err) => Err(err),
        }
    })
}

fn sweep_and_extract_uncached(
    params: &DeviceParams,
    density: MeshDensity,
    step: f64,
) -> Result<Extraction, TcadError> {
    let _span = subvt_engine::trace::span("tcad.sweep_and_extract")
        .attr("l_poly_nm", params.geometry.l_poly.get())
        .attr("v_dd", params.v_dd.as_volts())
        .attr("density", density.as_str());
    let v_dd = params.v_dd.as_volts();
    let params = *params;

    // The sweeps are pure jobs (they never touch the cache), which is
    // what keeps the cache's single-flight protocol deadlock-free.
    let mut curves = subvt_engine::global().map(vec![v_dd, 0.05], move |v_d| {
        let device = Mosfet2d::build(&params, density);
        let mut sim = DeviceSimulator::new(device)?;
        id_vg(&mut sim, v_d, v_dd, step)
    });
    let lin = curves.pop().expect("two sweeps")?;
    let sat = curves.pop().expect("two sweeps")?;

    let i_off = sat.i_d[0];
    let i_on = *sat.i_d.last().expect("non-empty sweep");

    // Swing: measured one to three decades above the off-current, well
    // inside the exponential region.
    let s_s = sat
        .swing_between(10.0 * i_off, 1.0e3 * i_off)
        .unwrap_or(f64::NAN);

    let l_eff_um = params.geometry.l_eff().get() * 1.0e-3;
    let i_crit = 1.0e-7 / l_eff_um; // 100 nA · W/L at W = 1 µm
    let v_th_sat = sat.v_g_at(i_crit).unwrap_or(f64::NAN);
    let v_th_lin = lin.v_g_at(i_crit).unwrap_or(f64::NAN);
    let dibl = if v_th_sat.is_finite() && v_th_lin.is_finite() {
        (v_th_lin - v_th_sat) / (v_dd - 0.05)
    } else {
        f64::NAN
    };

    Ok(Extraction {
        s_s,
        v_th_sat,
        i_off,
        i_on,
        dibl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::scope::Scope;
    use subvt_engine::trace::{self, TraceSnapshot};

    #[test]
    fn idvg_interpolation_helpers() {
        let curve = IdVg {
            v_g: vec![0.0, 0.1, 0.2, 0.3],
            i_d: vec![1e-12, 1e-11, 1e-10, 1e-9],
            v_d: 1.0,
        };
        // Exactly one decade per 100 mV → S_S = 100 mV/dec.
        let ss = curve.swing_between(1e-11, 1e-9).unwrap();
        assert!((ss - 100.0).abs() < 1e-9);
        let vg = curve.v_g_at(1e-10).unwrap();
        assert!((vg - 0.2).abs() < 1e-12);
        assert!(curve.v_g_at(1e-15).is_none());
        assert!(curve.v_g_at(1e-3).is_none());
    }

    #[test]
    fn degenerate_sweeps_return_none_instead_of_panicking() {
        // Regression: these used to index logs[0] / logs[len - 1] and
        // panic on empty or single-point curves.
        let empty = IdVg {
            v_g: vec![],
            i_d: vec![],
            v_d: 1.0,
        };
        assert_eq!(empty.v_g_at(1e-9), None);
        assert_eq!(empty.swing_between(1e-11, 1e-9), None);

        let single = IdVg {
            v_g: vec![0.0],
            i_d: vec![1e-12],
            v_d: 1.0,
        };
        assert_eq!(single.v_g_at(1e-12), None);
        assert_eq!(single.swing_between(1e-12, 1e-12), None);

        let mismatched = IdVg {
            v_g: vec![0.0, 0.1],
            i_d: vec![1e-12],
            v_d: 1.0,
        };
        assert_eq!(mismatched.v_g_at(1e-12), None);
    }

    #[test]
    fn non_positive_target_and_zero_decades_return_none() {
        let curve = IdVg {
            v_g: vec![0.0, 0.1],
            i_d: vec![1e-12, 1e-11],
            v_d: 1.0,
        };
        assert_eq!(curve.v_g_at(0.0), None);
        assert_eq!(curve.v_g_at(-1e-9), None);
        // Identical levels span zero decades — slope is undefined.
        assert_eq!(curve.swing_between(1e-12, 1e-12), None);
    }

    #[test]
    fn degenerate_sweep_specs_are_typed_errors_not_panics() {
        use crate::device::{MeshDensity, Mosfet2d};
        use crate::gummel::DeviceSimulator;
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let mut sim = DeviceSimulator::new(dev).unwrap();
        for (v_max, step) in [(0.0, 0.05), (1.2, 0.0), (1.2, -0.1), (f64::NAN, 0.05)] {
            match id_vg(&mut sim, 0.6, v_max, step) {
                Err(TcadError::InvalidSweep { .. }) => {}
                other => panic!("({v_max}, {step}) must be InvalidSweep, got {other:?}"),
            }
            match id_vd(&mut sim, 0.6, v_max, step) {
                Err(TcadError::InvalidSweep { .. }) => {}
                other => panic!("({v_max}, {step}) must be InvalidSweep, got {other:?}"),
            }
        }
        // The conductance of an under-sampled output curve is undefined,
        // not a panic.
        let short = IdVd {
            v_d: vec![0.0],
            i_d: vec![0.0],
            v_g: 0.6,
        };
        assert_eq!(short.saturation_conductance(), None);
    }

    #[test]
    fn extraction_blob_round_trips() {
        use subvt_engine::Blob;
        let ext = Extraction {
            s_s: 92.5,
            v_th_sat: 0.31,
            i_off: 3.2e-11,
            i_on: 4.1e-4,
            dibl: 0.08,
        };
        assert_eq!(Extraction::decode(&ext.encode()), Some(ext));
        assert_eq!(Extraction::decode(&[1.0, 2.0]), None);
    }

    #[test]
    fn extraction_key_distinguishes_inputs() {
        let p = DeviceParams::reference_90nm_nfet();
        let mut q = p;
        q.v_dd = subvt_units::Volts::new(p.v_dd.as_volts() + 0.1);
        let a = extraction_key(&p, MeshDensity::Coarse, 0.05);
        assert_eq!(a, extraction_key(&p, MeshDensity::Coarse, 0.05));
        assert_ne!(a, extraction_key(&q, MeshDensity::Coarse, 0.05));
        assert_ne!(a, extraction_key(&p, MeshDensity::Standard, 0.05));
        assert_ne!(a, extraction_key(&p, MeshDensity::Coarse, 0.1));
    }

    #[test]
    fn repeated_extraction_is_served_from_cache() {
        let params = DeviceParams::reference_90nm_nfet();
        let cache = subvt_engine::global_cache();
        let first = sweep_and_extract(&params, MeshDensity::Coarse).unwrap();
        let before = cache.stats().hits;
        let second = sweep_and_extract(&params, MeshDensity::Coarse).unwrap();
        assert_eq!(first, second);
        assert!(
            cache.stats().hits > before,
            "second identical extraction must be a cache hit"
        );
    }

    #[test]
    fn output_characteristic_is_monotone_and_saturates() {
        use crate::device::{MeshDensity, Mosfet2d};
        use crate::gummel::DeviceSimulator;
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let mut sim = DeviceSimulator::new(dev).unwrap();
        let curve = id_vd(&mut sim, 0.9, 1.2, 0.1).unwrap();
        // Monotone increasing in V_d.
        for w in curve.i_d.windows(2) {
            assert!(w[1] >= w[0] * (1.0 - 1e-9), "I_d must rise with V_d");
        }
        // Output conductance in saturation well below the triode slope.
        let g_triode = (curve.i_d[1] - curve.i_d[0]) / (curve.v_d[1] - curve.v_d[0]);
        let g_sat = curve.saturation_conductance().unwrap();
        assert!(
            g_sat < 0.3 * g_triode,
            "saturation: g_sat {g_sat:e} vs triode {g_triode:e}"
        );
    }

    #[test]
    fn reference_device_extraction_is_physical() {
        // The flagship 2-D validation: coarse-mesh 90 nm NFET metrics in
        // physically sensible windows (compact-model agreement is tested
        // in the cross-crate integration suite).
        let ext =
            sweep_and_extract(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse).unwrap();
        assert!(ext.s_s > 60.0 && ext.s_s < 130.0, "S_S = {}", ext.s_s);
        assert!(
            ext.v_th_sat > 0.10 && ext.v_th_sat < 0.65,
            "V_th = {}",
            ext.v_th_sat
        );
        assert!(
            ext.i_off > 1.0e-14 && ext.i_off < 1.0e-8,
            "I_off = {:e}",
            ext.i_off
        );
        assert!(ext.i_on > 1.0e-5, "I_on = {:e}", ext.i_on);
        assert!(ext.dibl > 0.0 && ext.dibl < 0.5, "DIBL = {}", ext.dibl);
    }

    fn counter(snap: &TraceSnapshot, name: &str) -> u64 {
        snap.counters.get(name).copied().unwrap_or(0)
    }

    /// The TCAD solver's counters keep their invariants over one cold
    /// coarse characterization of the reference NFET: every Gummel bias
    /// point runs at least one Poisson solve, each Poisson solve inside the
    /// Gummel loop stops after about one Newton step, each Gummel iteration
    /// and each equilibrium runs one continuity solve, the continuation
    /// predictor keeps the two sweeps within 470 Gummel iterations, the
    /// chord steps leave at most two Poisson factorizations per bias point,
    /// and every lookup of the extraction cache is counted as exactly one
    /// hit or miss.
    #[test]
    fn cold_characterization_keeps_the_solver_counter_invariants() {
        let _scope = Scope::fresh().enter();
        let params = DeviceParams::reference_90nm_nfet();
        let cold = sweep_and_extract(&params, MeshDensity::Coarse).expect("cold sweep");
        // The warm rerun is a cache hit and solves nothing.
        let warm = sweep_and_extract(&params, MeshDensity::Coarse).expect("warm sweep");
        assert_eq!(cold, warm);
        // The drain runs the flush hook that publishes the cache counters.
        let snap = trace::global().flushed_metrics();

        let bias_points = counter(&snap, "tcad.gummel.bias_points");
        let solves = counter(&snap, "tcad.poisson.solves");
        assert_eq!(bias_points, 63, "two sweeps of the reference device");
        assert!(
            solves >= bias_points,
            "{solves} Poisson solves for {bias_points} bias points"
        );

        // 536 without the continuation predictor, 439 with it, 454 with the
        // chord Poisson steps.
        let gummel = &snap.hists["tcad.gummel.iterations"];
        assert_eq!(gummel.count, bias_points);
        assert!(
            gummel.sum <= 470.0,
            "{} Gummel iterations over the two sweeps",
            gummel.sum
        );

        // Each Gummel iteration runs one continuity solve, and so does each
        // sweep's equilibrium.
        assert_eq!(
            counter(&snap, "tcad.continuity.solves") as f64,
            gummel.sum + 2.0,
            "continuity solves against {} Gummel iterations and 2 equilibria",
            gummel.sum
        );

        let newton = &snap.hists["tcad.poisson.iterations"];
        assert_eq!(newton.count, solves);
        let mean = newton.sum / newton.count as f64;
        assert!(
            mean <= 1.5,
            "{mean:.2} Newton steps per Poisson solve: the Gummel loop's inner solve must stay inexact"
        );

        // 474 factorizations when every Newton step factored, 95 with the
        // chord steps (18 of them in the two equilibrium solves).
        let (factor, resolve) = (
            counter(&snap, "tcad.poisson.factor"),
            counter(&snap, "tcad.poisson.resolve"),
        );
        assert!(
            factor <= 2 * bias_points,
            "{factor} Poisson factorizations for {bias_points} bias points"
        );
        assert!(resolve > 0, "no Poisson chord step reused a factorization");

        let (hits, misses) = (
            counter(&snap, "cache.tcad.extract.hit"),
            counter(&snap, "cache.tcad.extract.miss"),
        );
        let lookups = snap.hists["cache.tcad.extract.lookup_us"].count;
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(
            hits + misses,
            lookups,
            "cache.tcad.extract: hit + miss != lookups"
        );
    }
}
