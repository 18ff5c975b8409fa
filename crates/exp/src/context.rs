//! The run configuration, [`Study`], and the design context it
//! produces: both strategies designed once and reused by every
//! experiment (the design searches are the expensive step).
//!
//! Each flow's result lives in the engine's content-addressed cache
//! under the `design` namespace, keyed by the strategy's own parameters.
//! The first consumer pays for the searches; every later consumer — and
//! every later *process*, when the `repro` binary persists the cache with
//! `--cache <path>` — is served from the cache, which the trace counters
//! (`cache.design.hit` / `cache.design.miss`) make visible.
//!
//! A cold flow designs its four nodes as one engine-pool job each, and
//! [`Study::run_ids`] designs the context on its calling thread before it
//! fans the experiments out: the two flows then overlap, one per worker,
//! and every experiment recalls them from the cache.

use subvt_circuits::backend::CircuitBackendKind;
use subvt_circuits::inverter::CmosPair;
use subvt_core::roadmap::TechNode;
use subvt_core::strategy::{DesignError, NodeDesign, ScalingStrategy};
use subvt_core::supervth::at_subthreshold_supply_with;
use subvt_core::{SubVthStrategy, SuperVthStrategy};
use subvt_engine::KeyBuilder;
use subvt_model::{Backend, DeviceModel};
use subvt_units::{Temperature, Volts};

use crate::codec::DesignSet;

/// The paper's sub-V_th evaluation supply: 250 mV ("well within the
/// sub-V_th regime" — every Table 2 device has `V_th > 400 mV`).
pub const V_SUBVT: f64 = 0.25;

/// One run configuration, passed by value to every experiment, manifest
/// writer and served request. The default is the paper's setting:
/// analytic devices, analytic circuit metrics, room temperature.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Study {
    /// Device-model backend every characterization goes through.
    pub backend: Backend,
    /// Circuit backend for SNM, delay and chain-energy metrics.
    pub circuit: CircuitBackendKind,
    /// Operating temperature. [`Study::context`] re-characterizes the
    /// designed devices at it (the `repro --temp` meaning).
    pub temp: Temperature,
}

impl Study {
    /// The device model [`Study::backend`] selects. TCAD maps to the
    /// coarse-mesh anchored model, which pays for one anchor extraction
    /// and then runs design searches at analytic speed.
    pub fn model(&self) -> &'static dyn DeviceModel {
        match self.backend {
            Backend::Analytic => subvt_model::analytic(),
            Backend::Tcad => &subvt_tcad::model::TCAD_COARSE,
        }
    }

    /// Runs (or recalls) both design flows through [`Study::model`] at
    /// [`Study::temp`]. A cold run costs a few hundred milliseconds in a
    /// release build; warm runs are cache lookups.
    ///
    /// # Errors
    ///
    /// Propagates [`DesignError`] from either flow.
    pub fn context(&self) -> Result<StudyContext, DesignError> {
        design_context(*self, self.model())
    }

    /// A node's circuit-level device pair: sized from the design through
    /// [`Study::model`], operating at [`Study::temp`]. For designs out of
    /// [`Study::context`] the devices already sit at that temperature.
    pub fn pair(&self, design: &NodeDesign) -> CmosPair {
        design
            .cmos_pair_with(self.model())
            .at_temperature(self.temp)
    }

    /// Re-characterizes a design at a subthreshold supply through
    /// [`Study::model`].
    ///
    /// # Errors
    ///
    /// [`DesignError::Model`] when the backend fails on the device.
    pub fn at_subthreshold(
        &self,
        design: &NodeDesign,
        v_dd: Volts,
    ) -> Result<NodeDesign, DesignError> {
        at_subthreshold_supply_with(design, v_dd, self.model())
    }
}

/// Designs for all four nodes under both strategies, with the study
/// that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyContext {
    /// The run configuration the designs were produced under; the
    /// experiments that take this context evaluate through it.
    pub study: Study,
    /// Super-V_th (Table 2) designs, 90 → 32 nm.
    pub supervth: Vec<NodeDesign>,
    /// Sub-V_th (Table 3) designs, 90 → 32 nm.
    pub subvth: Vec<NodeDesign>,
}

/// Cache key for the super-V_th flow: every strategy knob that shapes
/// the designs, plus the evaluation backend. The tag is versioned
/// against the [`DesignSet`] layout.
fn supervth_key(s: &SuperVthStrategy, model: &dyn DeviceModel, t: Temperature) -> u64 {
    KeyBuilder::new("design.v1")
        .str("supervth")
        .str(&model.cache_id())
        .f64(s.t_ox_shrink_rate)
        .f64(s.i_leak_90nm_pa)
        .f64(s.i_leak_growth)
        .f64(t.as_kelvin())
        .finish()
}

/// Cache key for the sub-V_th flow.
fn subvth_key(s: &SubVthStrategy, model: &dyn DeviceModel, t: Temperature) -> u64 {
    KeyBuilder::new("design.v1")
        .str("subvth")
        .str(&model.cache_id())
        .f64(s.i_off_target.get())
        .f64(t.as_kelvin())
        .finish()
}

/// Re-tags every design's devices with the operating temperature and
/// re-characterizes them, so downstream consumers (figure tables, pair
/// construction, supply re-biasing) all see temperature-consistent
/// characteristics. At room temperature this is the identity: the
/// designs come out of the flows already characterized at
/// [`Temperature::room`].
fn at_temperature(
    designs: Vec<NodeDesign>,
    t: Temperature,
    model: &dyn DeviceModel,
) -> Result<Vec<NodeDesign>, DesignError> {
    if t == Temperature::room() {
        return Ok(designs);
    }
    designs
        .into_iter()
        .map(|mut d| {
            d.nfet.temperature = t;
            d.pfet.temperature = t;
            d.nfet_chars = model.characterize(&d.nfet)?;
            d.pfet_chars = model.characterize(&d.pfet)?;
            Ok(d)
        })
        .collect()
}

/// Runs one flow's node designs as one `subvt_engine::global()` job per
/// [`TechNode::ALL`] entry (the nodes do not depend on each other),
/// collects them in node order keeping the first error, and then
/// re-characterizes them at `t`. Bit-identical to
/// [`ScalingStrategy::design_all_with`] followed by [`at_temperature`].
fn design_flow<S>(
    strategy: S,
    model: &'static dyn DeviceModel,
    t: Temperature,
) -> Result<Vec<NodeDesign>, DesignError>
where
    S: ScalingStrategy + Send + Sync + 'static,
{
    let designs = subvt_engine::global()
        .map(TechNode::ALL.to_vec(), move |node| {
            strategy.design_node_with(model, node)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    at_temperature(designs, t, model)
}

fn design_cached(
    name: &'static str,
    key: u64,
    flow: impl FnOnce() -> Result<Vec<NodeDesign>, DesignError> + Send,
) -> Result<Vec<NodeDesign>, DesignError> {
    let set = subvt_engine::global_cache().try_get_or_compute("design", key, move || {
        let _span = subvt_engine::trace::span(format!("design.{name}"));
        flow().map(DesignSet)
    })?;
    Ok(set.0)
}

/// Runs (or recalls) both flows through `model` at `study.temp`. Each
/// backend ([`DeviceModel::cache_id`]) and each temperature keys its own
/// `design` entries, so `--temp` runs never collide with the paper's
/// room-temperature records.
///
/// The two flows are independent and overlap as two pool jobs; each
/// flow fans its nodes out as one job per node ([`design_flow`]).
/// Called from outside the pool (as [`Study::run_ids`] does before it
/// fans the experiments out), the flows land in the injector, one per
/// idle worker.
pub(crate) fn design_context(
    study: Study,
    model: &'static dyn DeviceModel,
) -> Result<StudyContext, DesignError> {
    let t = study.temp;
    // The sub-V_th flow is the longer one; submitted first, it is the
    // first one an idle worker takes from the injector.
    let flows = subvt_engine::global().map(vec![false, true], move |is_super| {
        if is_super {
            let s = SuperVthStrategy::default();
            design_cached("supervth", supervth_key(&s, model, t), move || {
                design_flow(s, model, t)
            })
        } else {
            let s = SubVthStrategy::default();
            design_cached("subvth", subvth_key(&s, model, t), move || {
                design_flow(s, model, t)
            })
        }
    });
    let [subvth, supervth]: [_; 2] = flows.try_into().expect("two flows");
    let subvth = subvth?;
    let supervth = supervth?;
    Ok(StudyContext {
        study,
        supervth,
        subvth,
    })
}

#[cfg(test)]
impl StudyContext {
    /// The default [`Study`]'s context, computed once per test process
    /// (design flows are deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the design flows fail — the roadmap inputs are fixed, so
    /// a failure is a programming error, not an input error.
    pub fn cached() -> &'static StudyContext {
        static CTX: std::sync::OnceLock<StudyContext> = std::sync::OnceLock::new();
        CTX.get_or_init(|| {
            Study::default()
                .context()
                .expect("design flows failed on roadmap inputs")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_context_has_four_nodes_each() {
        let ctx = StudyContext::cached();
        assert_eq!(ctx.supervth.len(), 4);
        assert_eq!(ctx.subvth.len(), 4);
        assert_eq!(ctx.study, Study::default());
    }

    #[test]
    fn cached_is_singleton() {
        let a = StudyContext::cached() as *const _;
        let b = StudyContext::cached() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn recompute_is_served_from_cache_and_identical() {
        let first = StudyContext::cached();
        let cache = subvt_engine::global_cache();
        let before = cache.stats().hits;
        let second = Study::default().context().unwrap();
        assert_eq!(*first, second, "cache recall must be bit-exact");
        assert!(
            cache.stats().hits >= before + 2,
            "both flows must be cache hits on recompute"
        );
    }

    #[test]
    fn explicit_resolution_covers_every_backend() {
        let model = |backend| {
            Study {
                backend,
                ..Study::default()
            }
            .model()
            .cache_id()
        };
        assert_eq!(model(Backend::Analytic), "analytic");
        assert!(model(Backend::Tcad).starts_with("tcad"));
        for kind in CircuitBackendKind::ALL {
            assert_eq!(kind.instance().name(), kind.as_str());
        }
    }

    #[test]
    fn pair_operates_at_the_study_temperature() {
        let ctx = StudyContext::cached();
        let hot = Temperature::from_kelvin(350.0);
        let room_pair = ctx.study.pair(&ctx.supervth[0]);
        let hot_pair = Study {
            temp: hot,
            ..ctx.study
        }
        .pair(&ctx.supervth[0]);
        assert_eq!(room_pair.nfet.temperature, Temperature::room());
        assert_eq!(hot_pair, room_pair.at_temperature(hot));
        assert_eq!(hot_pair.pfet.temperature, hot);
    }

    #[test]
    fn strategy_knobs_change_the_cache_key() {
        let m = subvt_model::analytic();
        let room = Temperature::room();
        let a = supervth_key(&SuperVthStrategy::default(), m, room);
        let s = SuperVthStrategy {
            t_ox_shrink_rate: 0.30,
            ..Default::default()
        };
        assert_ne!(a, supervth_key(&s, m, room));
        assert_ne!(a, subvth_key(&SubVthStrategy::default(), m, room));
        assert_ne!(
            a,
            supervth_key(
                &SuperVthStrategy::default(),
                m,
                Temperature::from_kelvin(350.0)
            ),
            "temperature must key its own design entries"
        );
    }

    #[test]
    fn backend_changes_the_cache_key() {
        let s = SuperVthStrategy::default();
        let room = Temperature::room();
        let analytic = supervth_key(&s, subvt_model::analytic(), room);
        let tcad = supervth_key(&s, &subvt_tcad::model::TCAD_COARSE, room);
        assert_ne!(analytic, tcad, "backends must not share design entries");
    }

    /// Every `f64` of a design set as its IEEE-754 bit pattern.
    fn bits(designs: Vec<NodeDesign>) -> Vec<u64> {
        use subvt_engine::Blob;
        DesignSet(designs)
            .encode()
            .into_iter()
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn fanned_out_flows_equal_serial_flows_bit_for_bit() {
        let m = subvt_model::analytic();
        let room = Temperature::room();
        let s = SuperVthStrategy::default();
        assert_eq!(
            bits(design_flow(s, m, room).unwrap()),
            bits(s.design_all_with(m).unwrap())
        );
        let s = SubVthStrategy::default();
        assert_eq!(
            bits(design_flow(s, m, room).unwrap()),
            bits(s.design_all_with(m).unwrap())
        );
    }

    #[test]
    fn room_temperature_retag_is_identity() {
        let ctx = StudyContext::cached();
        let again = at_temperature(
            ctx.supervth.clone(),
            Temperature::room(),
            subvt_model::analytic(),
        )
        .unwrap();
        assert_eq!(again, ctx.supervth);
        let hot = at_temperature(
            ctx.supervth.clone(),
            Temperature::from_kelvin(350.0),
            subvt_model::analytic(),
        )
        .unwrap();
        assert!(
            hot[0].nfet_chars.i_off.get() > ctx.supervth[0].nfet_chars.i_off.get(),
            "leakage must grow with temperature"
        );
    }
}
