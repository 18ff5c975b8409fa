//! The TCAD evaluation backend: [`TcadModel`] implements
//! [`subvt_model::DeviceModel`] on top of [`sweep_and_extract`], with a
//! one-time calibration against the compact reference device.
//!
//! # Calibration
//!
//! The 2-D solver and the compact model disagree systematically at the
//! reference 90 nm NFET: the constant-current threshold criterion sits
//! ~0.18 V below the compact `V_th,sat`, which carries ~2 decades more
//! off-current (see the `integration_tcad_vs_compact` suite). Exactly as
//! a production TCAD deck is calibrated against measured silicon, the
//! backend removes that deck offset with anchor-derived corrections —
//! here the "silicon" is the compact reference — while the *relative*
//! 2-D electrostatics (swing and DIBL ratios, and under
//! [`Fidelity::Direct`] every per-device trend) are preserved.
//!
//! # Fidelity
//!
//! * [`Fidelity::Anchored`] (default): one cached extraction of the
//!   reference device per mesh density; every characterization is the
//!   analytic result re-shaped by the anchor's swing/DIBL ratios. This
//!   is what lets the design flows — thousands of characterizations per
//!   doping search — run under `--backend tcad` in CLI time.
//! * [`Fidelity::Direct`]: a full (cached) 2-D extraction per device,
//!   deck-corrected into the compact frame. Used by the
//!   `ext-backends` comparison experiment and the parity tests.
//!
//! Calibrations and per-device corrections live in the engine cache
//! under the `tcad.model` namespace (raw sweeps stay in `tcad.extract`),
//! so a second `repro --backend tcad` run with `--cache` re-simulates
//! nothing.

use std::sync::OnceLock;

use subvt_engine::{Blob, KeyBuilder};
use subvt_model::{DeviceModel, ModelError};
use subvt_physics::device::{DeviceCharacteristics, DeviceKind, DeviceParams};
use subvt_physics::swing::slope_factor;
use subvt_units::{AmpsPerMicron, MilliVoltsPerDecade, Seconds, Volts};

use crate::device::MeshDensity;
use crate::extract::sweep_and_extract;
use crate::gummel::TcadError;

/// How much 2-D simulation a [`TcadModel`] characterization runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Single anchor extraction; per-device results are analytic
    /// characterizations re-shaped by the anchor's swing/DIBL ratios.
    Anchored,
    /// One (cached) 2-D extraction per device, deck-corrected into the
    /// compact frame.
    Direct,
}

impl Fidelity {
    /// Stable spelling used in cache identifiers.
    pub fn as_str(self) -> &'static str {
        match self {
            Fidelity::Anchored => "anchored",
            Fidelity::Direct => "direct",
        }
    }
}

/// Anchor-derived deck corrections mapping raw 2-D extractions into the
/// compact model's frame (exact at the reference device by
/// construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Calibration {
    /// Raw 2-D vs compact swing ratio at the anchor.
    ss_ratio: f64,
    /// Raw 2-D vs compact DIBL ratio at the anchor.
    dibl_ratio: f64,
    /// Added to a raw extracted `V_th,sat` (corrects the
    /// constant-current criterion to the compact definition), volts.
    vth_shift: f64,
    /// Multiplies a raw extracted off-current.
    ioff_scale: f64,
    /// Multiplies a raw extracted on-current.
    ion_scale: f64,
}

impl Blob for Calibration {
    fn encode(&self) -> Vec<f64> {
        vec![
            self.ss_ratio,
            self.dibl_ratio,
            self.vth_shift,
            self.ioff_scale,
            self.ion_scale,
        ]
    }
    fn decode(record: &[f64]) -> Option<Self> {
        match record {
            [ss_ratio, dibl_ratio, vth_shift, ioff_scale, ion_scale] => Some(Self {
                ss_ratio: *ss_ratio,
                dibl_ratio: *dibl_ratio,
                vth_shift: *vth_shift,
                ioff_scale: *ioff_scale,
                ion_scale: *ion_scale,
            }),
            _ => None,
        }
    }
}

impl Calibration {
    /// The calibration, or a typed error when a ratio is non-finite or
    /// non-positive, or the threshold shift is non-finite.
    fn checked(self) -> Result<Self, ModelError> {
        let ok = self.ss_ratio.is_finite()
            && self.ss_ratio > 0.0
            && self.dibl_ratio.is_finite()
            && self.vth_shift.is_finite()
            && self.ioff_scale.is_finite()
            && self.ioff_scale > 0.0
            && self.ion_scale.is_finite()
            && self.ion_scale > 0.0;
        if ok {
            Ok(self)
        } else {
            Err(ModelError::Backend {
                backend: "tcad",
                message: format!("degenerate anchor calibration: {self:?}"),
            })
        }
    }
}

/// Per-device correction, already in the compact frame: ratios/deltas
/// applied to the device's analytic characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Adjust {
    ss_ratio: f64,
    dibl_ratio: f64,
    vth_delta: f64,
    ioff_ratio: f64,
    ion_ratio: f64,
}

impl Adjust {
    fn is_finite(&self) -> bool {
        self.ss_ratio.is_finite()
            && self.ss_ratio > 0.0
            && self.dibl_ratio.is_finite()
            && self.vth_delta.is_finite()
            && self.ioff_ratio.is_finite()
            && self.ioff_ratio > 0.0
            && self.ion_ratio.is_finite()
            && self.ion_ratio > 0.0
    }
}

impl Blob for Adjust {
    fn encode(&self) -> Vec<f64> {
        vec![
            self.ss_ratio,
            self.dibl_ratio,
            self.vth_delta,
            self.ioff_ratio,
            self.ion_ratio,
        ]
    }
    fn decode(record: &[f64]) -> Option<Self> {
        match record {
            [ss_ratio, dibl_ratio, vth_delta, ioff_ratio, ion_ratio] => Some(Self {
                ss_ratio: *ss_ratio,
                dibl_ratio: *dibl_ratio,
                vth_delta: *vth_delta,
                ioff_ratio: *ioff_ratio,
                ion_ratio: *ion_ratio,
            }),
            _ => None,
        }
    }
}

fn tcad_err(e: TcadError) -> ModelError {
    ModelError::Backend {
        backend: "tcad",
        message: e.to_string(),
    }
}

/// Applies a compact-frame correction to an analytic characterization,
/// keeping the derived fields (`m`, `V_th,lin`, `τ`) self-consistent.
fn apply(params: &DeviceParams, base: DeviceCharacteristics, adj: Adjust) -> DeviceCharacteristics {
    let v_dd = params.v_dd.as_volts();
    let mut c = base;
    c.s_s = MilliVoltsPerDecade::new(base.s_s.get() * adj.ss_ratio);
    c.m = slope_factor(c.s_s, params.temperature);
    c.dibl = base.dibl * adj.dibl_ratio;
    c.v_th_sat = Volts::new(base.v_th_sat.as_volts() + adj.vth_delta);
    c.v_th_lin = Volts::new(c.v_th_sat.as_volts() + c.dibl * (v_dd - 0.05));
    c.i0 = AmpsPerMicron::new(base.i0.get() * adj.ioff_ratio);
    c.i_off = AmpsPerMicron::new(base.i_off.get() * adj.ioff_ratio);
    c.i_on = AmpsPerMicron::new(base.i_on.get() * adj.ion_ratio);
    c.tau = Seconds::new(c.c_g.get() * v_dd / c.i_on.get().max(1e-30));
    c
}

/// The 2-D TCAD backend (see the module docs for the calibration and
/// fidelity semantics).
#[derive(Debug)]
pub struct TcadModel {
    density: MeshDensity,
    fidelity: Fidelity,
    calibration: OnceLock<Result<Calibration, ModelError>>,
}

/// Coarse-mesh anchored backend — the `repro --backend tcad` default.
pub static TCAD_COARSE: TcadModel = TcadModel::new(MeshDensity::Coarse, Fidelity::Anchored);
/// Coarse-mesh per-device backend (one cached extraction per device).
pub static TCAD_COARSE_DIRECT: TcadModel = TcadModel::new(MeshDensity::Coarse, Fidelity::Direct);

impl TcadModel {
    /// Creates a backend at the given mesh density and fidelity. The
    /// calibration is computed lazily on first use (and memoized, on top
    /// of the engine cache entry).
    pub const fn new(density: MeshDensity, fidelity: Fidelity) -> Self {
        Self {
            density,
            fidelity,
            calibration: OnceLock::new(),
        }
    }

    /// Mesh density every extraction under this backend uses.
    pub fn density(&self) -> MeshDensity {
        self.density
    }

    /// Fidelity mode of this backend.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The anchor calibration, computed once per process or recalled
    /// from the cache. A recalled value passes the same check as a
    /// computed one: a persisted `--cache` may hold one this build would
    /// reject.
    fn calibration(&self) -> Result<Calibration, ModelError> {
        self.calibration
            .get_or_init(|| {
                let anchor = DeviceParams::reference_90nm_nfet();
                let density = self.density;
                let key = model_key(CAL_TAG, &anchor, density);
                subvt_engine::global_cache()
                    .try_get_or_compute("tcad.model", key, move || {
                        let _span = subvt_engine::trace::span("tcad.model.calibrate");
                        let ext = sweep_and_extract(&anchor, density).map_err(tcad_err)?;
                        let base = anchor.characterize();
                        Calibration {
                            ss_ratio: ext.s_s / base.s_s.get(),
                            dibl_ratio: ext.dibl / base.dibl,
                            vth_shift: base.v_th_sat.as_volts() - ext.v_th_sat,
                            ioff_scale: base.i_off.get() / ext.i_off,
                            ion_scale: base.i_on.get() / ext.i_on,
                        }
                        .checked()
                        .map_err(|_| ModelError::Backend {
                            backend: "tcad",
                            message: format!("degenerate anchor extraction: {ext:?}"),
                        })
                    })
                    .and_then(Calibration::checked)
            })
            .clone()
    }

    /// Per-device correction under [`Fidelity::Direct`]: a cached 2-D
    /// extraction of the device's NFET-frame mirror (the 2-D solver
    /// models electron transport only), deck-corrected and expressed as
    /// ratios against the mirror's analytic characterization — which
    /// transfers the TCAD trends onto either polarity.
    fn direct_adjust(&self, params: &DeviceParams) -> Result<Adjust, ModelError> {
        let cal = self.calibration()?;
        let mirror = DeviceParams {
            kind: DeviceKind::Nfet,
            ..*params
        };
        let density = self.density;
        let key = model_key(DIRECT_TAG, &mirror, density);
        subvt_engine::global_cache().try_get_or_compute("tcad.model", key, move || {
            let ext = sweep_and_extract(&mirror, density).map_err(tcad_err)?;
            let mbase = mirror.characterize();
            let adj = Adjust {
                ss_ratio: ext.s_s / mbase.s_s.get(),
                dibl_ratio: ext.dibl / mbase.dibl,
                vth_delta: (ext.v_th_sat + cal.vth_shift) - mbase.v_th_sat.as_volts(),
                ioff_ratio: ext.i_off * cal.ioff_scale / mbase.i_off.get(),
                ion_ratio: ext.i_on * cal.ion_scale / mbase.i_on.get(),
            };
            if adj.is_finite() {
                Ok(adj)
            } else {
                Err(ModelError::Backend {
                    backend: "tcad",
                    message: format!("degenerate extraction {ext:?} at {mirror:?}"),
                })
            }
        })
    }
}

/// Tags of the `tcad.model` keys: the anchor calibration and the
/// per-device corrections. Like [`crate::extract::extraction_key`]'s
/// tag, they carry the solver revision.
const CAL_TAG: &str = concat!("tcad.model.cal.", solver_revision!());
const DIRECT_TAG: &str = concat!("tcad.model.direct.", solver_revision!());

/// Cache key of a `tcad.model` entry.
fn model_key(tag: &str, params: &DeviceParams, density: MeshDensity) -> u64 {
    KeyBuilder::new(tag)
        .keyed(params)
        .str(density.as_str())
        .finish()
}

impl DeviceModel for TcadModel {
    fn name(&self) -> &'static str {
        "tcad"
    }

    /// `tcad.{density}.{fidelity}.{revision}`. The design, topology and
    /// circuit caches key on this id, so its solver revision keeps their
    /// entries in step with the `tcad.extract` and `tcad.model` tags.
    fn cache_id(&self) -> String {
        format!(
            concat!("tcad.{}.{}.", solver_revision!()),
            self.density.as_str(),
            self.fidelity.as_str()
        )
    }

    fn characterize(&self, params: &DeviceParams) -> Result<DeviceCharacteristics, ModelError> {
        let base = params.characterize();
        let adj = match self.fidelity {
            Fidelity::Anchored => {
                let cal = self.calibration()?;
                Adjust {
                    ss_ratio: cal.ss_ratio,
                    dibl_ratio: cal.dibl_ratio,
                    vth_delta: 0.0,
                    ioff_ratio: 1.0,
                    ion_ratio: 1.0,
                }
            }
            Fidelity::Direct => self.direct_adjust(params)?,
        };
        Ok(apply(params, base, adj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_ids_distinguish_configurations() {
        let standard = TcadModel::new(MeshDensity::Standard, Fidelity::Anchored);
        let standard_direct = TcadModel::new(MeshDensity::Standard, Fidelity::Direct);
        let ids = [
            TCAD_COARSE.cache_id(),
            TCAD_COARSE_DIRECT.cache_id(),
            standard.cache_id(),
            standard_direct.cache_id(),
        ];
        for (i, a) in ids.iter().enumerate() {
            assert!(a.starts_with("tcad."), "{a}");
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(TCAD_COARSE.name(), "tcad");
    }

    #[test]
    fn cache_keys_carry_the_solver_revision() {
        // Pinned: a change here must be a deliberate revision bump.
        assert_eq!(TCAD_COARSE.cache_id(), "tcad.coarse.anchored.v6");
        let standard_direct = TcadModel::new(MeshDensity::Standard, Fidelity::Direct);
        assert_eq!(standard_direct.cache_id(), "tcad.standard.direct.v6");
        let p = DeviceParams::reference_90nm_nfet();
        let d = MeshDensity::Coarse;
        let keys = [
            crate::extract::extraction_key(&p, d, 0.05),
            model_key(CAL_TAG, &p, d),
            model_key(DIRECT_TAG, &p, d),
        ];
        assert_eq!(
            keys,
            [
                0xf576_0e51_ac92_67a8,
                0xa6b1_e06c_32bb_e051,
                0xe002_ba9a_9b87_8cd5
            ],
            "{keys:#x?}"
        );
        // Caches written by earlier solver revisions never match.
        for rev in ["v1", "v2", "v3", "v4", "v5"] {
            let previous = [
                KeyBuilder::new(&format!("tcad.extract.{rev}"))
                    .keyed(&p)
                    .str(d.as_str())
                    .f64(0.05)
                    .finish(),
                model_key(&format!("tcad.model.cal.{rev}"), &p, d),
                model_key(&format!("tcad.model.direct.{rev}"), &p, d),
            ];
            for (new, old) in keys.iter().zip(&previous) {
                assert_ne!(new, old, "{rev}");
            }
        }
        assert_ne!(TCAD_COARSE.cache_id(), "tcad.coarse.anchored.v5");
    }

    #[test]
    fn identity_adjust_changes_only_derived_vth_lin() {
        let p = DeviceParams::reference_90nm_nfet();
        let base = p.characterize();
        let adj = Adjust {
            ss_ratio: 1.0,
            dibl_ratio: 1.0,
            vth_delta: 0.0,
            ioff_ratio: 1.0,
            ion_ratio: 1.0,
        };
        let c = apply(&p, base, adj);
        assert_eq!(c.s_s, base.s_s);
        assert_eq!(c.v_th_sat, base.v_th_sat);
        assert_eq!(c.i_off, base.i_off);
        assert_eq!(c.i_on, base.i_on);
        // v_th_lin is rebuilt from v_th_sat + DIBL·(V_dd − 50 mV); the
        // analytic value comes from the roll-off expressions directly,
        // so it may move slightly but must stay above v_th_sat.
        assert!(c.v_th_lin > c.v_th_sat);
    }

    #[test]
    fn apply_rescales_swing_and_keeps_m_consistent() {
        let p = DeviceParams::reference_90nm_nfet();
        let base = p.characterize();
        let adj = Adjust {
            ss_ratio: 1.1,
            dibl_ratio: 0.9,
            vth_delta: 0.02,
            ioff_ratio: 2.0,
            ion_ratio: 0.5,
        };
        let c = apply(&p, base, adj);
        assert!((c.s_s.get() / base.s_s.get() - 1.1).abs() < 1e-12);
        assert!(
            (c.m / slope_factor(c.s_s, p.temperature) - 1.0).abs() < 1e-12,
            "m must follow the adjusted swing"
        );
        assert!((c.i_off.get() / base.i_off.get() - 2.0).abs() < 1e-12);
        assert!((c.i_on.get() / base.i_on.get() - 0.5).abs() < 1e-12);
        assert!((c.v_th_sat.as_volts() - base.v_th_sat.as_volts() - 0.02).abs() < 1e-12);
        // τ rebuilt from the adjusted on-current.
        assert!((c.tau.get() / (base.tau.get() * 2.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_and_adjust_blobs_round_trip() {
        let cal = Calibration {
            ss_ratio: 1.01,
            dibl_ratio: 0.85,
            vth_shift: 0.179,
            ioff_scale: 4.6e-3,
            ion_scale: 0.27,
        };
        assert_eq!(Calibration::decode(&cal.encode()), Some(cal));
        assert_eq!(Calibration::decode(&[1.0]), None);
        let adj = Adjust {
            ss_ratio: 1.0,
            dibl_ratio: 1.0,
            vth_delta: 0.0,
            ioff_ratio: 1.0,
            ion_ratio: 1.0,
        };
        assert_eq!(Adjust::decode(&adj.encode()), Some(adj));
        assert_eq!(Adjust::decode(&[]), None);
    }
}
