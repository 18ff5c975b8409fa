//! Typed queries: parsing, canonical cache keys, and compute bodies.
//!
//! A [`Query`] is the parsed, validated, *canonical* form of a request
//! — two wire lines that differ only in whitespace, member order, or
//! `id` produce the same `Query` and therefore the same cache key, so
//! request dedup is semantic rather than textual. The key lives in the
//! engine cache's `serve.resp` namespace; the cached value is the
//! rendered JSON payload packed into the cache's numeric-blob model by
//! [`TextBlob`].
//!
//! One request shape maps every method to its computation. A [`Device`]
//! (node selection and device backend) heads every device and circuit
//! query, and the five circuit methods are one [`Query::Circuit`] whose
//! [`CircuitMetric`] names the measurement. [`Query::from_request`],
//! [`Query::key`] and [`compute`] each have one arm per variant.
//!
//! Every request field goes through one typed reader: an absent field
//! takes its default, and a present field of the wrong JSON type is a
//! `bad_request` that names the field. Numbers stay numbers (`"1.2"` is
//! not a voltage), counts are non-negative integers, and names are
//! strings out of a fixed set (`format` is `text` or `csv`).

use std::ops::RangeInclusive;

use subvt_circuits::backend::CircuitBackendKind;
use subvt_circuits::chain::InverterChain;
use subvt_circuits::delay::analytic_fo1_delay;
use subvt_circuits::gates::GateKind;
use subvt_circuits::inverter::{analytic_vtc, CmosPair};
use subvt_circuits::snm::noise_margins;
use subvt_circuits::topology::{
    cached_gate_leakage, cached_gate_snm, cached_inverter_vtc, cached_ring_oscillation,
};
use subvt_core::roadmap::TechNode;
use subvt_core::strategy::NodeDesign;
use subvt_engine::cache::Blob;
use subvt_engine::json::Json;
use subvt_engine::KeyBuilder;
use subvt_exp::Study;
use subvt_model::Backend;
use subvt_physics::device::{DeviceCharacteristics, DeviceKind, DeviceParams};
use subvt_physics::iv::MosModel;
use subvt_physics::math::linspace;
use subvt_units::{Temperature, Volts};

use crate::proto::{fmt_f64, fmt_f64s, json_str, ErrorCode};

/// Largest accepted sweep/curve size; guards the daemon against a
/// single request monopolizing the pool.
pub const MAX_POINTS: usize = 100_000;

/// Room temperature in kelvin — the default for every `temp_k` request
/// field, matching the paper's fixed-temperature assumption.
pub const ROOM_K: f64 = 300.0;

/// Which design flow a node query resolves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Table 3 sub-V_th designs (the paper's subject).
    SubVth,
    /// Table 2 super-V_th (conventional) designs.
    SuperVth,
}

impl Strategy {
    /// Stable wire/cache-key name.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::SubVth => "subvth",
            Strategy::SuperVth => "supervth",
        }
    }
}

/// Which device a query characterizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeSel {
    /// The paper's reference 90 nm NFET — cheap under every backend
    /// because it skips the design flows entirely.
    Ref90,
    /// A designed node out of one of the two scaling flows.
    Designed {
        /// Technology node, 90 → 32 nm.
        node: TechNode,
        /// Design flow the node comes from.
        strategy: Strategy,
    },
}

/// The device under test and the backend that characterizes it: the
/// head of every device and circuit query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Which device.
    pub sel: NodeSel,
    /// Device-model backend.
    pub backend: Backend,
}

impl Device {
    /// Reads `node`, `strategy` and `backend`, in that order.
    fn parse(params: &Json) -> Result<Self, ParseError> {
        let sel = match field::<&str>(params, "node")? {
            None => return Err(bad("missing string `node` (ref90|90nm|65nm|45nm|32nm)")),
            Some("ref90") => NodeSel::Ref90,
            Some(name) => NodeSel::Designed {
                node: TechNode::ALL
                    .into_iter()
                    .find(|n| n.name() == name)
                    .ok_or_else(|| bad(format!("unknown node `{name}`")))?,
                strategy: named(params, "strategy", Strategy::SubVth, "", |s| {
                    [Strategy::SubVth, Strategy::SuperVth]
                        .into_iter()
                        .find(|k| k.as_str() == s)
                })?,
            },
        };
        Ok(Device {
            sel,
            backend: parse_backend(params)?,
        })
    }

    fn absorb(self, kb: KeyBuilder) -> KeyBuilder {
        let kb = match self.sel {
            NodeSel::Ref90 => kb.str("ref90"),
            NodeSel::Designed { node, strategy } => kb.str(node.name()).str(strategy.as_str()),
        };
        kb.str(self.backend.as_str())
    }

    /// The room-temperature study the backend selects: device methods,
    /// and the designs behind circuit methods, resolve through it.
    fn room(self) -> Study {
        Study {
            backend: self.backend,
            ..Study::default()
        }
    }

    /// Resolves the NFET under test: its parameter set and its
    /// characterization through the backend.
    ///
    /// # Errors
    ///
    /// A human-readable message when the backend or a design flow fails.
    pub fn nfet(self) -> Result<(DeviceParams, DeviceCharacteristics), String> {
        match self.sel {
            NodeSel::Ref90 => {
                let params = DeviceParams::reference_90nm_nfet();
                let chars = self
                    .room()
                    .model()
                    .characterize(&params)
                    .map_err(|e| format!("characterization failed: {e}"))?;
                Ok((params, chars))
            }
            NodeSel::Designed { .. } => {
                let d = self.design()?;
                Ok((d.nfet, d.nfet_chars))
            }
        }
    }

    /// The room-temperature design of a designed node.
    fn design(self) -> Result<NodeDesign, String> {
        let NodeSel::Designed { node, strategy } = self.sel else {
            return Err("ref90 has no design-flow entry".to_owned());
        };
        let ctx = self
            .room()
            .context()
            .map_err(|e| format!("design flow failed: {e}"))?;
        let designs = match strategy {
            Strategy::SubVth => &ctx.subvth,
            Strategy::SuperVth => &ctx.supervth,
        };
        designs
            .iter()
            .find(|d| d.node == node)
            .copied()
            .ok_or_else(|| format!("design flow produced no {} entry", node.name()))
    }

    /// The inverter device pair a circuit request measures: sized from
    /// the node's room-temperature design (or balanced from the
    /// reference NFET) and operated at `temp_k` kelvin, so every
    /// downstream characterization — leakage, swing, VTC — sees that
    /// temperature. This is the `ext-temp` meaning of temperature.
    /// `repro --temp` differs: it re-characterizes the designs at the
    /// temperature before sizing the pair, so its PFET widths differ
    /// slightly.
    ///
    /// # Errors
    ///
    /// A human-readable message when the backend or a design flow fails.
    pub fn pair_at(self, temp_k: f64) -> Result<CmosPair, String> {
        let room = self.room();
        let pair = match self.sel {
            NodeSel::Ref90 => {
                CmosPair::balanced_with(room.model(), DeviceParams::reference_90nm_nfet())
                    .map_err(|e| format!("characterization failed: {e}"))?
            }
            NodeSel::Designed { .. } => room.pair(&self.design()?),
        };
        Ok(pair.at_temperature(Temperature::from_kelvin(temp_k)))
    }

    /// Evaluates the drain current at every `v_gs` bias, in order, on
    /// the calling thread: one compact-model evaluation per point costs
    /// far less than an engine-pool job would.
    ///
    /// # Errors
    ///
    /// A human-readable message when device resolution fails.
    fn idvg_currents(self, v_ds: f64, v_gs: &[f64]) -> Result<Vec<f64>, String> {
        let (params, chars) = self.nfet()?;
        let model = MosModel::from_device(&params, &chars);
        let vds = Volts::new(v_ds);
        Ok(v_gs
            .iter()
            .map(|&v| model.drain_current(Volts::new(v), vds).get())
            .collect())
    }
}

/// What a [`Query::Circuit`] measures on the node's inverter pair. The
/// wire method name is [`CircuitMetric::as_str`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CircuitMetric {
    /// Voltage-transfer characteristic.
    Vtc {
        /// Supply voltage.
        v_dd: f64,
        /// Sample count along the input axis.
        points: usize,
    },
    /// Static noise margins from the VTC.
    Snm {
        /// Supply voltage.
        v_dd: f64,
    },
    /// FO1 propagation delay.
    Fo1 {
        /// Supply voltage.
        v_dd: f64,
    },
    /// Per-cycle energy of the paper's 30-stage chain at one supply.
    ChainEnergy {
        /// Supply voltage.
        v_dd: f64,
    },
    /// Minimum-energy operating point of the paper's chain.
    Mep,
}

/// Reads a [`CircuitMetric`]'s own fields from the request params.
type MetricReader = fn(&Json) -> Result<CircuitMetric, ParseError>;

impl CircuitMetric {
    /// Stable wire/cache-key name: the request method.
    pub fn as_str(self) -> &'static str {
        match self {
            CircuitMetric::Vtc { .. } => "vtc",
            CircuitMetric::Snm { .. } => "snm",
            CircuitMetric::Fo1 { .. } => "fo1",
            CircuitMetric::ChainEnergy { .. } => "chain_energy",
            CircuitMetric::Mep => "mep",
        }
    }

    /// The reader of the metric's own fields when `method` is a circuit
    /// method, `None` otherwise: the one place the circuit method names
    /// are recognised.
    fn reader(method: &str) -> Option<MetricReader> {
        let read: MetricReader = match method {
            "vtc" => |p| {
                Ok(CircuitMetric::Vtc {
                    v_dd: parse_v_dd(p)?,
                    points: count(p, "points", 161, 2..=MAX_POINTS as u64)?,
                })
            },
            "snm" => |p| parse_v_dd(p).map(|v_dd| CircuitMetric::Snm { v_dd }),
            "fo1" => |p| parse_v_dd(p).map(|v_dd| CircuitMetric::Fo1 { v_dd }),
            "chain_energy" => |p| parse_v_dd(p).map(|v_dd| CircuitMetric::ChainEnergy { v_dd }),
            "mep" => |_| Ok(CircuitMetric::Mep),
            _ => return None,
        };
        Some(read)
    }

    fn absorb(self, kb: KeyBuilder) -> KeyBuilder {
        match self {
            CircuitMetric::Vtc { v_dd, points } => kb.f64(v_dd).u64(points as u64),
            CircuitMetric::Snm { v_dd }
            | CircuitMetric::Fo1 { v_dd }
            | CircuitMetric::ChainEnergy { v_dd } => kb.f64(v_dd),
            CircuitMetric::Mep => kb,
        }
    }

    /// Measures the metric on `pair` through the `circuit` backend.
    fn measure(self, pair: CmosPair, circuit: CircuitBackendKind) -> Result<String, String> {
        let backend = circuit.instance();
        match self {
            CircuitMetric::Vtc { v_dd, points } => {
                let vtc = backend
                    .vtc(&pair, Volts::new(v_dd), points)
                    .map_err(|e| format!("vtc failed: {e}"))?;
                Ok(format!(
                    "{{\"v_dd\":{},\"v_in\":{},\"v_out\":{}}}",
                    fmt_f64(vtc.v_dd),
                    fmt_f64s(&vtc.v_in),
                    fmt_f64s(&vtc.v_out),
                ))
            }
            CircuitMetric::Snm { v_dd } => {
                let vtc = backend
                    .vtc(&pair, Volts::new(v_dd), 161)
                    .map_err(|e| format!("vtc failed: {e}"))?;
                let nm = noise_margins(&vtc)
                    .ok_or("no noise margins: the VTC has no unity-gain points at this supply")?;
                Ok(format!(
                    "{{\"v_il\":{},\"v_ih\":{},\"v_oh\":{},\"v_ol\":{},\"nm_low\":{},\"nm_high\":{},\"snm\":{}}}",
                    fmt_f64(nm.v_il),
                    fmt_f64(nm.v_ih),
                    fmt_f64(nm.v_oh),
                    fmt_f64(nm.v_ol),
                    fmt_f64(nm.nm_low),
                    fmt_f64(nm.nm_high),
                    fmt_f64(nm.snm()),
                ))
            }
            CircuitMetric::Fo1 { v_dd } => {
                let d = backend
                    .fo1_delay(&pair, Volts::new(v_dd))
                    .map_err(|e| format!("fo1 failed: {e}"))?;
                Ok(format!(
                    "{{\"tp_hl_s\":{},\"tp_lh_s\":{},\"average_s\":{}}}",
                    fmt_f64(d.tp_hl.get()),
                    fmt_f64(d.tp_lh.get()),
                    fmt_f64(d.average().get()),
                ))
            }
            CircuitMetric::ChainEnergy { v_dd } => {
                let e = backend
                    .chain_energy(&InverterChain::paper_chain(pair), Volts::new(v_dd))
                    .map_err(|e| format!("chain_energy failed: {e}"))?;
                Ok(energy_payload(&e))
            }
            CircuitMetric::Mep => {
                let mep = backend
                    .minimum_energy_point(&InverterChain::paper_chain(pair))
                    .map_err(|e| format!("mep failed: {e}"))?;
                Ok(format!(
                    "{{\"v_min\":{},\"energy_j\":{},\"point\":{}}}",
                    fmt_f64(mep.v_min.get()),
                    fmt_f64(mep.energy.get()),
                    energy_payload(&mep.point),
                ))
            }
        }
    }
}

/// The measurement a [`Query::Topology`] request asks the declarative
/// topology layer (`subvt_circuits::topology`) for. Every op runs off
/// compiled cell/testbench netlists and is served from the engine's
/// `spice.vtc` / `spice.tran` caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyOp {
    /// Worst-case static noise margin of a two-input gate, plus its
    /// leakage over all four input vectors (the stack effect).
    GateSnm {
        /// Which gate from the library.
        gate: GateKind,
        /// Sample count along each VTC's input axis.
        points: usize,
    },
    /// Ring-oscillator frequency from the transient limit cycle.
    RingFreq {
        /// Stage count (odd, >= 3).
        stages: usize,
        /// Transient step count.
        steps: usize,
    },
    /// Subthreshold figures of merit swept over temperature.
    TempSweep {
        /// First temperature, kelvin.
        t_start_k: f64,
        /// Last temperature, kelvin.
        t_stop_k: f64,
        /// Temperature sample count.
        points: usize,
    },
}

impl TopologyOp {
    /// Stable wire/cache-key name of the op.
    pub fn as_str(self) -> &'static str {
        match self {
            TopologyOp::GateSnm { .. } => "gate_snm",
            TopologyOp::RingFreq { .. } => "ring_freq",
            TopologyOp::TempSweep { .. } => "temp_sweep",
        }
    }

    /// Reads `op` and the op's own fields.
    fn parse(params: &Json) -> Result<Self, ParseError> {
        let op = field::<&str>(params, "op")?
            .ok_or_else(|| bad("missing string `op` (gate_snm|ring_freq|temp_sweep)"))?;
        Ok(match op {
            "gate_snm" => TopologyOp::GateSnm {
                gate: named(params, "gate", GateKind::Nand2, " (nand2|nor2)", |s| {
                    [GateKind::Nand2, GateKind::Nor2]
                        .into_iter()
                        .find(|g| gate_name(*g) == s)
                })?,
                points: count(params, "points", 121, 2..=MAX_POINTS as u64)?,
            },
            "ring_freq" => TopologyOp::RingFreq {
                stages: {
                    let n = field::<u64>(params, "stages")?.unwrap_or(5);
                    if !(3..=63).contains(&n) || n.is_multiple_of(2) {
                        return Err(bad("`stages` must be odd and in 3..=63"));
                    }
                    n as usize
                },
                steps: count(params, "steps", 1500, 100..=20_000)?,
            },
            "temp_sweep" => {
                if params.get("temp_k").is_some() {
                    return Err(bad(
                        "`temp_sweep` takes `t_start_k`/`t_stop_k`, not `temp_k`",
                    ));
                }
                let t_start_k = kelvin(params, "t_start_k", 250.0)?;
                let t_stop_k = kelvin(params, "t_stop_k", 400.0)?;
                if t_start_k >= t_stop_k {
                    return Err(bad("`t_start_k` must be below `t_stop_k`"));
                }
                TopologyOp::TempSweep {
                    t_start_k,
                    t_stop_k,
                    points: count(params, "points", 7, 2..=64)?,
                }
            }
            other => {
                return Err(bad(format!(
                    "unknown op `{other}` (gate_snm|ring_freq|temp_sweep)"
                )))
            }
        })
    }

    fn absorb(self, kb: KeyBuilder) -> KeyBuilder {
        let kb = kb.str(self.as_str());
        match self {
            TopologyOp::GateSnm { gate, points } => kb.str(gate_name(gate)).u64(points as u64),
            TopologyOp::RingFreq { stages, steps } => kb.u64(stages as u64).u64(steps as u64),
            TopologyOp::TempSweep {
                t_start_k,
                t_stop_k,
                points,
            } => kb.f64(t_start_k).f64(t_stop_k).u64(points as u64),
        }
    }
}

/// Stable wire name for a gate kind.
fn gate_name(gate: GateKind) -> &'static str {
    match gate {
        GateKind::Nand2 => "nand2",
        GateKind::Nor2 => "nor2",
    }
}

/// A validated, canonical request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// I_d–V_gs sweep of a node's NFET at fixed `V_ds`.
    IdVg {
        /// Device under test.
        dev: Device,
        /// Drain bias.
        v_ds: f64,
        /// Gate biases, ascending.
        v_gs: Vec<f64>,
    },
    /// Extracted subthreshold parameters of a node's NFET.
    Params {
        /// Device under test.
        dev: Device,
    },
    /// The designed device descriptions (geometry + doping) at a node.
    Model {
        /// Device under test (designed flows depend on its backend).
        dev: Device,
    },
    /// A circuit metric of the node's inverter pair: `vtc`, `snm`,
    /// `fo1`, `chain_energy` or `mep`.
    Circuit {
        /// Device under test.
        dev: Device,
        /// Circuit-metric backend.
        circuit: CircuitBackendKind,
        /// Operating temperature, kelvin.
        temp_k: f64,
        /// What to measure.
        metric: CircuitMetric,
    },
    /// A declarative-topology measurement: the gate-library,
    /// ring-oscillator, and temperature workloads, compiled by
    /// `subvt_circuits::topology` and recalled from the engine's
    /// netlist-keyed caches.
    Topology {
        /// Device under test.
        dev: Device,
        /// Which topology measurement.
        op: TopologyOp,
        /// Supply voltage.
        v_dd: f64,
        /// Operating temperature, kelvin (single-temperature ops only).
        temp_k: f64,
    },
    /// A full `repro` experiment rendered exactly as the CLI prints it
    /// (text or CSV), byte-identical to `repro` stdout under the same
    /// `--backend`/`--circuit-backend` flags.
    Experiment {
        /// Experiment id, e.g. `"fig2"`.
        id: String,
        /// CSV rendering instead of the aligned text table.
        csv: bool,
        /// The request's backends, at room temperature.
        study: Study,
    },
    /// Diagnostic: hold a worker for `ms` milliseconds. Never cached;
    /// used by tests and the load generator to occupy the pool.
    Sleep {
        /// How long to hold the worker.
        ms: u64,
        /// Free-form discriminator so concurrent sleeps get distinct
        /// supervisor keys.
        token: String,
    },
    /// Diagnostic: a compute that always panics, for exercising the
    /// supervisor's quarantine from the outside. Never cached.
    Panic {
        /// Discriminator; the quarantine is keyed on it, so a repeated
        /// token is refused without running.
        token: String,
    },
}

type ParseError = (ErrorCode, String);

fn bad(msg: impl Into<String>) -> ParseError {
    (ErrorCode::BadRequest, msg.into())
}

/// A JSON type a request field is read as.
trait FieldType<'a>: Sized {
    /// The type as a `bad_request` message names it.
    const NAME: &'static str;
    fn read(value: &'a Json) -> Option<Self>;
}

impl FieldType<'_> for f64 {
    const NAME: &'static str = "a number";
    fn read(value: &Json) -> Option<Self> {
        value.as_f64()
    }
}

impl FieldType<'_> for u64 {
    const NAME: &'static str = "a non-negative integer";
    fn read(value: &Json) -> Option<Self> {
        value.as_u64()
    }
}

impl<'a> FieldType<'a> for &'a str {
    const NAME: &'static str = "a string";
    fn read(value: &'a Json) -> Option<Self> {
        value.as_str()
    }
}

/// The one field reader: `None` when `name` is absent, `bad_request`
/// naming the field when it is present with another JSON type.
fn field<'a, T: FieldType<'a>>(params: &'a Json, name: &str) -> Result<Option<T>, ParseError> {
    params
        .get(name)
        .map(|value| T::read(value).ok_or_else(|| bad(format!("`{name}` must be {}", T::NAME))))
        .transpose()
}

/// An optional string field naming one value out of a fixed set;
/// `hint` lists the set in the error message.
fn named<T>(
    params: &Json,
    name: &str,
    default: T,
    hint: &str,
    lookup: impl FnOnce(&str) -> Option<T>,
) -> Result<T, ParseError> {
    match field::<&str>(params, name)? {
        None => Ok(default),
        Some(s) => lookup(s).ok_or_else(|| bad(format!("unknown {name} `{s}`{hint}"))),
    }
}

/// An optional count field, in `range`.
fn count(
    params: &Json,
    name: &str,
    default: u64,
    range: RangeInclusive<u64>,
) -> Result<usize, ParseError> {
    let n = field::<u64>(params, name)?.unwrap_or(default);
    if !range.contains(&n) {
        return Err(bad(format!("`{name}` must be in {range:?}")));
    }
    Ok(n as usize)
}

/// An optional kelvin-valued field; accepts (0, 1000] so the carrier
/// physics stays in a sane regime.
fn kelvin(params: &Json, name: &str, default: f64) -> Result<f64, ParseError> {
    let t = field::<f64>(params, name)?.unwrap_or(default);
    if !(t.is_finite() && t > 0.0 && t <= 1000.0) {
        return Err(bad(format!("`{name}` must be in (0, 1000] kelvin")));
    }
    Ok(t)
}

fn parse_backend(params: &Json) -> Result<Backend, ParseError> {
    named(
        params,
        "backend",
        Backend::Analytic,
        " (analytic|tcad)",
        |s| s.parse().ok(),
    )
}

fn parse_circuit(params: &Json) -> Result<CircuitBackendKind, ParseError> {
    named(
        params,
        "circuit_backend",
        CircuitBackendKind::Analytic,
        " (analytic|spice)",
        |s| s.parse().ok(),
    )
}

fn parse_v_dd(params: &Json) -> Result<f64, ParseError> {
    let v = field::<f64>(params, "v_dd")?.ok_or_else(|| bad("missing number `v_dd`"))?;
    if !(v.is_finite() && v > 0.0 && v <= 10.0) {
        return Err(bad("`v_dd` must be in (0, 10] volts"));
    }
    Ok(v)
}

fn parse_v_gs(params: &Json) -> Result<Vec<f64>, ParseError> {
    let spec = match params.get("v_gs") {
        None => return Ok(linspace(0.0, 1.2, 25)),
        Some(spec) => spec,
    };
    let points = if let Some(arr) = spec.as_arr() {
        arr.iter()
            .map(|v| v.as_f64().filter(|x| x.is_finite()))
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| bad("`v_gs` array must hold finite numbers"))?
    } else {
        let start = spec.get("start").and_then(Json::as_f64);
        let stop = spec.get("stop").and_then(Json::as_f64);
        let n = spec.get("points").and_then(Json::as_u64);
        match (start, stop, n) {
            (Some(a), Some(b), Some(n)) if a.is_finite() && b.is_finite() && n >= 2 => {
                linspace(a, b, n as usize)
            }
            _ => {
                return Err(bad(
                    "`v_gs` must be an array of numbers or {start, stop, points>=2}",
                ))
            }
        }
    };
    if points.is_empty() || points.len() > MAX_POINTS {
        return Err(bad(format!("`v_gs` needs 1..={MAX_POINTS} points")));
    }
    Ok(points)
}

impl Query {
    /// Parses and validates a request body for `method`. Fields are
    /// read in a fixed order, so the first error a request reports does
    /// not depend on its member order.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownMethod`] for a method outside the protocol,
    /// [`ErrorCode::BadRequest`] with context for invalid params: a
    /// missing required field, a field of the wrong JSON type, a value
    /// out of range, or an unknown name (node, backend, format,
    /// experiment id, ...).
    pub fn from_request(method: &str, params: &Json) -> Result<Self, ParseError> {
        Ok(match method {
            "idvg" => Query::IdVg {
                dev: Device::parse(params)?,
                v_ds: {
                    let v = field::<f64>(params, "v_ds")?.unwrap_or(0.05);
                    if !(v.is_finite() && v.abs() <= 10.0) {
                        return Err(bad("`v_ds` must be finite and |v_ds| <= 10"));
                    }
                    v
                },
                v_gs: parse_v_gs(params)?,
            },
            "params" => Query::Params {
                dev: Device::parse(params)?,
            },
            "model" => Query::Model {
                dev: Device::parse(params)?,
            },
            "topology" => {
                let op = TopologyOp::parse(params)?;
                Query::Topology {
                    dev: Device::parse(params)?,
                    op,
                    v_dd: parse_v_dd(params)?,
                    temp_k: kelvin(params, "temp_k", ROOM_K)?,
                }
            }
            "experiment" => Query::Experiment {
                id: match field::<&str>(params, "id")? {
                    None => return Err(bad("missing string `id` (try `repro --list`)")),
                    Some(id) if subvt_exp::is_experiment(id) => id.to_owned(),
                    Some(id) => {
                        return Err(bad(format!(
                            "unknown experiment `{id}` (try `repro --list`)"
                        )))
                    }
                },
                csv: named(params, "format", false, " (text|csv)", |s| match s {
                    "text" => Some(false),
                    "csv" => Some(true),
                    _ => None,
                })?,
                study: Study {
                    backend: parse_backend(params)?,
                    circuit: parse_circuit(params)?,
                    ..Study::default()
                },
            },
            "sleep" => Query::Sleep {
                ms: {
                    let ms = field::<u64>(params, "ms")?.unwrap_or(100);
                    if ms > 10_000 {
                        return Err(bad("`ms` must be <= 10000"));
                    }
                    ms
                },
                token: field::<&str>(params, "token")?.unwrap_or("").to_owned(),
            },
            "panic" => Query::Panic {
                token: field::<&str>(params, "token")?.unwrap_or("").to_owned(),
            },
            other => match CircuitMetric::reader(other) {
                Some(metric) => Query::Circuit {
                    dev: Device::parse(params)?,
                    circuit: parse_circuit(params)?,
                    metric: metric(params)?,
                    temp_k: kelvin(params, "temp_k", ROOM_K)?,
                },
                None => {
                    return Err((
                        ErrorCode::UnknownMethod,
                        format!("unknown method `{other}`"),
                    ))
                }
            },
        })
    }

    /// The method name this query answers (used in metric names).
    pub fn method(&self) -> &'static str {
        match self {
            Query::IdVg { .. } => "idvg",
            Query::Params { .. } => "params",
            Query::Model { .. } => "model",
            Query::Circuit { metric, .. } => metric.as_str(),
            Query::Topology { .. } => "topology",
            Query::Experiment { .. } => "experiment",
            Query::Sleep { .. } => "sleep",
            Query::Panic { .. } => "panic",
        }
    }

    /// Whether responses may be cached/deduped. Diagnostics are not.
    pub fn cacheable(&self) -> bool {
        !matches!(self, Query::Sleep { .. } | Query::Panic { .. })
    }

    /// Canonical dedup/supervisor key over every semantic field (never
    /// the request id). The fields are absorbed device first, then the
    /// circuit backend, the metric's or op's own fields, and `temp_k`
    /// last — the order every persisted `serve.v1` entry was keyed in.
    pub fn key(&self) -> u64 {
        let kb = KeyBuilder::new("serve.v1").str(self.method());
        match self {
            Query::IdVg { dev, v_ds, v_gs } => dev.absorb(kb).f64(*v_ds).f64s(v_gs).finish(),
            Query::Params { dev } | Query::Model { dev } => dev.absorb(kb).finish(),
            Query::Circuit {
                dev,
                circuit,
                temp_k,
                metric,
            } => metric
                .absorb(dev.absorb(kb).str(circuit.as_str()))
                .f64(*temp_k)
                .finish(),
            Query::Topology {
                dev,
                op,
                v_dd,
                temp_k,
            } => op.absorb(dev.absorb(kb)).f64(*v_dd).f64(*temp_k).finish(),
            Query::Experiment { id, csv, study } => kb
                .str(id)
                .bool(*csv)
                .str(study.backend.as_str())
                .str(study.circuit.as_str())
                .finish(),
            Query::Sleep { ms, token } => kb.u64(*ms).str(token).finish(),
            Query::Panic { token } => kb.str(token).finish(),
        }
    }
}

/// A UTF-8 string packed into the cache's `Vec<f64>` blob model:
/// element 0 carries the byte length, then 8 bytes per element,
/// little-endian, through `f64::{from_bits, to_bits}`. The JSONL
/// persistence layer stores bit patterns (not decimal renderings), so
/// arbitrary payload bytes — including ones that alias NaN — round-trip
/// exactly through save and load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextBlob(pub String);

impl Blob for TextBlob {
    fn encode(&self) -> Vec<f64> {
        let bytes = self.0.as_bytes();
        let mut out = Vec::with_capacity(1 + bytes.len().div_ceil(8));
        out.push(f64::from_bits(bytes.len() as u64));
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            out.push(f64::from_bits(u64::from_le_bytes(b)));
        }
        out
    }

    fn decode(record: &[f64]) -> Option<Self> {
        let (len, rest) = record.split_first()?;
        let len = usize::try_from(len.to_bits()).ok()?;
        if rest.len() != len.div_ceil(8) {
            return None;
        }
        let mut bytes = Vec::with_capacity(rest.len() * 8);
        for f in rest {
            bytes.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        bytes.truncate(len);
        String::from_utf8(bytes).ok().map(TextBlob)
    }
}

/// Renders the `idvg` payload for one bias list.
fn idvg_payload(v_gs: &[f64], i_d: &[f64]) -> String {
    format!(
        "{{\"unit\":\"A/um\",\"v_gs\":{},\"i_d\":{}}}",
        fmt_f64s(v_gs),
        fmt_f64s(i_d)
    )
}

fn device_payload(p: &DeviceParams) -> String {
    let g = &p.geometry;
    format!(
        "{{\"kind\":{},\"l_poly_nm\":{},\"t_ox_nm\":{},\"l_overlap_nm\":{},\"x_j_nm\":{},\
         \"halo_sigma_nm\":{},\"n_sub_cm3\":{},\"n_p_halo_cm3\":{},\"n_sd_cm3\":{},\
         \"v_dd\":{},\"temperature_k\":{}}}",
        json_str(match p.kind {
            DeviceKind::Nfet => "nfet",
            DeviceKind::Pfet => "pfet",
        }),
        fmt_f64(g.l_poly.get()),
        fmt_f64(g.t_ox.get()),
        fmt_f64(g.l_overlap.get()),
        fmt_f64(g.x_j.get()),
        fmt_f64(g.halo_sigma.get()),
        fmt_f64(p.n_sub.get()),
        fmt_f64(p.n_p_halo.get()),
        fmt_f64(p.n_sd.get()),
        fmt_f64(p.v_dd.get()),
        fmt_f64(p.temperature.as_kelvin()),
    )
}

fn chars_payload(c: &DeviceCharacteristics) -> String {
    format!(
        "{{\"l_eff_nm\":{},\"n_eff_cm3\":{},\"c_ox_f_cm2\":{},\"w_dep_nm\":{},\
         \"s_s_mv_dec\":{},\"m\":{},\"v_th0\":{},\"v_th_lin\":{},\"v_th_sat\":{},\
         \"dibl\":{},\"mu0_cm2_vs\":{},\"i0_a_um\":{},\"i_off_a_um\":{},\"i_on_a_um\":{},\
         \"c_g_f_um\":{},\"c_drain_f_um\":{},\"tau_s\":{},\"on_off_ratio\":{}}}",
        fmt_f64(c.l_eff.get()),
        fmt_f64(c.n_eff.get()),
        fmt_f64(c.c_ox.get()),
        fmt_f64(c.w_dep.get()),
        fmt_f64(c.s_s.get()),
        fmt_f64(c.m),
        fmt_f64(c.v_th0.get()),
        fmt_f64(c.v_th_lin.get()),
        fmt_f64(c.v_th_sat.get()),
        fmt_f64(c.dibl),
        fmt_f64(c.mu0),
        fmt_f64(c.i0.get()),
        fmt_f64(c.i_off.get()),
        fmt_f64(c.i_on.get()),
        fmt_f64(c.c_g.get()),
        fmt_f64(c.c_drain.get()),
        fmt_f64(c.tau.get()),
        fmt_f64(c.on_off_ratio()),
    )
}

fn energy_payload(e: &subvt_circuits::chain::EnergyPoint) -> String {
    format!(
        "{{\"v_dd\":{},\"dynamic_j\":{},\"leakage_j\":{},\"total_j\":{},\"t_cycle_s\":{}}}",
        fmt_f64(e.v_dd.get()),
        fmt_f64(e.dynamic.get()),
        fmt_f64(e.leakage.get()),
        fmt_f64(e.total().get()),
        fmt_f64(e.t_cycle.get()),
    )
}

/// Renders a `[..]` JSON array where a missing measurement (e.g. no
/// unity-gain points at this supply/temperature) becomes `null`.
fn fmt_opt_f64s(vals: &[Option<f64>]) -> String {
    let body: Vec<String> = vals
        .iter()
        .map(|v| v.map(fmt_f64).unwrap_or_else(|| "null".to_owned()))
        .collect();
    format!("[{}]", body.join(","))
}

/// Body of the `topology` method: compiles the requested cell/testbench
/// through `subvt_circuits::topology` and recalls the measurement from
/// the engine's netlist-keyed caches.
fn compute_topology(dev: Device, op: TopologyOp, v_dd: f64, temp_k: f64) -> Result<String, String> {
    let v = Volts::new(v_dd);
    match op {
        TopologyOp::GateSnm { gate, points } => {
            let pair = dev.pair_at(temp_k)?;
            let snm = cached_gate_snm(&pair, gate, v, points)
                .map_err(|e| format!("gate snm failed: {e}"))?;
            let vectors = [(false, false), (false, true), (true, false), (true, true)];
            let mut leak = [0.0f64; 4];
            for (slot, inputs) in leak.iter_mut().zip(vectors) {
                *slot = cached_gate_leakage(&pair, gate, v, inputs)
                    .map_err(|e| format!("gate leakage failed: {e}"))?;
            }
            // The stack effect: worst single-off vector over the
            // both-off vector (series NFETs for NAND, series PFETs for
            // NOR — the both-off state differs between them).
            let both_off = match gate {
                GateKind::Nand2 => leak[0],
                GateKind::Nor2 => leak[3],
            };
            let single_off = leak[1].max(leak[2]);
            Ok(format!(
                "{{\"gate\":{},\"v_dd\":{},\"temp_k\":{},\"snm\":{},\
                 \"i_leak_a\":{{\"00\":{},\"01\":{},\"10\":{},\"11\":{}}},\
                 \"stack_factor\":{}}}",
                json_str(gate_name(gate)),
                fmt_f64(v_dd),
                fmt_f64(temp_k),
                fmt_f64(snm),
                fmt_f64(leak[0]),
                fmt_f64(leak[1]),
                fmt_f64(leak[2]),
                fmt_f64(leak[3]),
                fmt_f64(single_off / both_off),
            ))
        }
        TopologyOp::RingFreq { stages, steps } => {
            let pair = dev.pair_at(temp_k)?;
            let osc = cached_ring_oscillation(&pair, v, stages, steps)
                .map_err(|e| format!("ring oscillation failed: {e}"))?;
            Ok(format!(
                "{{\"stages\":{stages},\"v_dd\":{},\"temp_k\":{},\"f_osc_hz\":{},\
                 \"period_s\":{},\"stage_delay_s\":{},\"analytic_fo1_s\":{}}}",
                fmt_f64(v_dd),
                fmt_f64(temp_k),
                fmt_f64(osc.period.get().recip()),
                fmt_f64(osc.period.get()),
                fmt_f64(osc.stage_delay.get()),
                fmt_f64(analytic_fo1_delay(&pair, v).get()),
            ))
        }
        TopologyOp::TempSweep {
            t_start_k,
            t_stop_k,
            points,
        } => {
            let temps = linspace(t_start_k, t_stop_k, points);
            let mut s_s = Vec::with_capacity(temps.len());
            let mut snm_spice = Vec::with_capacity(temps.len());
            let mut snm_analytic = Vec::with_capacity(temps.len());
            let mut v_min = Vec::with_capacity(temps.len());
            let mut e_min = Vec::with_capacity(temps.len());
            for &tk in &temps {
                let pair = dev.pair_at(tk)?;
                s_s.push(pair.nfet_chars().s_s.get());
                snm_spice.push(
                    cached_inverter_vtc(&pair, v, 121)
                        .ok()
                        .and_then(|vtc| noise_margins(&vtc))
                        .map(|nm| nm.snm()),
                );
                snm_analytic.push(noise_margins(&analytic_vtc(&pair, v, 121)).map(|nm| nm.snm()));
                let mep = InverterChain::paper_chain(pair).minimum_energy_point();
                v_min.push(mep.v_min.get());
                e_min.push(mep.energy.get());
            }
            Ok(format!(
                "{{\"v_dd\":{},\"t_k\":{},\"s_s_mv_dec\":{},\"snm_spice_v\":{},\
                 \"snm_analytic_v\":{},\"v_min\":{},\"e_min_j\":{}}}",
                fmt_f64(v_dd),
                fmt_f64s(&temps),
                fmt_f64s(&s_s),
                fmt_opt_f64s(&snm_spice),
                fmt_opt_f64s(&snm_analytic),
                fmt_f64s(&v_min),
                fmt_f64s(&e_min),
            ))
        }
    }
}

/// Body of the `model` method: the node's NFET and PFET descriptions.
fn compute_model(dev: Device) -> Result<String, String> {
    let (nfet, pfet, node) = match dev.sel {
        NodeSel::Ref90 => {
            let (n, _) = dev.nfet()?;
            let p = DeviceParams {
                kind: DeviceKind::Pfet,
                ..n
            };
            (n, p, "ref90")
        }
        NodeSel::Designed { node, .. } => {
            let d = dev.design()?;
            (d.nfet, d.pfet, node.name())
        }
    };
    Ok(format!(
        "{{\"node\":{},\"nfet\":{},\"pfet\":{}}}",
        json_str(node),
        device_payload(&nfet),
        device_payload(&pfet),
    ))
}

/// Runs a query body to its JSON payload. This is the function the
/// server supervises; it is deterministic for every cacheable query.
///
/// # Errors
///
/// A human-readable message (mapped to [`ErrorCode::ComputeFailed`])
/// when a backend, solver, or design flow fails.
///
/// # Panics
///
/// [`Query::Panic`] panics by design (the supervisor catches it); no
/// other variant panics on valid inputs.
pub fn compute(q: &Query) -> Result<String, String> {
    match q {
        Query::IdVg { dev, v_ds, v_gs } => {
            let i_d = dev.idvg_currents(*v_ds, v_gs)?;
            Ok(idvg_payload(v_gs, &i_d))
        }
        Query::Params { dev } => Ok(chars_payload(&dev.nfet()?.1)),
        Query::Model { dev } => compute_model(*dev),
        Query::Circuit {
            dev,
            circuit,
            temp_k,
            metric,
        } => metric.measure(dev.pair_at(*temp_k)?, *circuit),
        Query::Topology {
            dev,
            op,
            v_dd,
            temp_k,
        } => compute_topology(*dev, *op, *v_dd, *temp_k),
        Query::Experiment { id, csv, study } => {
            let table = study
                .run(id)
                .map_err(|e| format!("experiment `{id}` failed: {e}"))?;
            Ok(json_str(&table.render(*csv)))
        }
        Query::Sleep { ms, .. } => {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            Ok(format!("{{\"slept_ms\":{ms}}}"))
        }
        Query::Panic { token } => panic!("poison request (token `{token}`)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::json::parse_json;

    fn q(method: &str, params: &str) -> Result<Query, (ErrorCode, String)> {
        Query::from_request(method, &parse_json(params).unwrap())
    }

    #[test]
    fn canonical_keys_ignore_wire_noise() {
        let a = q("fo1", r#"{"node":"45nm","strategy":"subvth","v_dd":0.3}"#).unwrap();
        let b = q("fo1", r#"{"v_dd":0.3,  "node":"45nm"}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
        let implicit = q("experiment", r#"{"id":"fig6","format":"csv"}"#).unwrap();
        let explicit = q(
            "experiment",
            r#"{"id":"fig6","format":"csv","backend":"analytic","circuit_backend":"analytic"}"#,
        )
        .unwrap();
        assert_eq!(implicit, explicit);
        assert_eq!(implicit.key(), explicit.key());
        // The default experiment key is the one persisted caches hold.
        let persisted = KeyBuilder::new("serve.v1")
            .str("experiment")
            .str("fig6")
            .bool(true)
            .str("analytic")
            .str("analytic")
            .finish();
        assert_eq!(implicit.key(), persisted);
    }

    #[test]
    fn keys_separate_methods_and_fields() {
        let a = q("fo1", r#"{"node":"45nm","v_dd":0.3}"#).unwrap();
        let b = q("snm", r#"{"node":"45nm","v_dd":0.3}"#).unwrap();
        let c = q("fo1", r#"{"node":"45nm","v_dd":0.25}"#).unwrap();
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        let analytic = q("experiment", r#"{"id":"fig6"}"#).unwrap();
        let spice = q("experiment", r#"{"id":"fig6","circuit_backend":"spice"}"#).unwrap();
        assert_ne!(analytic.key(), spice.key());
    }

    #[test]
    fn every_circuit_method_parses_to_its_own_metric() {
        for method in ["vtc", "snm", "fo1", "chain_energy", "mep"] {
            let query = q(method, r#"{"node":"ref90","v_dd":0.3}"#).unwrap();
            assert!(matches!(query, Query::Circuit { .. }), "{method}");
            assert_eq!(query.method(), method);
        }
    }

    #[test]
    fn text_blob_round_trips_all_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let s: String = "π≤µ".chars().cycle().take(len).collect();
            let blob = TextBlob(s.clone());
            let decoded = TextBlob::decode(&blob.encode()).unwrap();
            assert_eq!(decoded.0, s);
        }
    }

    #[test]
    fn text_blob_rejects_truncated_records() {
        let enc = TextBlob("hello world, longer than eight".to_owned()).encode();
        assert!(TextBlob::decode(&enc[..enc.len() - 1]).is_none());
        assert!(TextBlob::decode(&[]).is_none());
    }

    #[test]
    fn ref90_idvg_computes_monotone_currents() {
        let v_gs = linspace(0.0, 1.2, 7);
        let dev = Device {
            sel: NodeSel::Ref90,
            backend: Backend::Analytic,
        };
        let i_d = dev.idvg_currents(0.05, &v_gs).unwrap();
        assert_eq!(i_d.len(), 7);
        for w in i_d.windows(2) {
            assert!(w[1] > w[0], "I_d must grow with V_gs: {w:?}");
        }
        let payload = idvg_payload(&v_gs, &i_d);
        assert!(parse_json(&payload).is_ok(), "payload must be valid JSON");
    }

    #[test]
    fn topology_requests_parse_and_key_by_op() {
        let a = q(
            "topology",
            r#"{"op":"gate_snm","node":"ref90","v_dd":0.25}"#,
        )
        .unwrap();
        let b = q(
            "topology",
            r#"{"op":"gate_snm","gate":"nor2","node":"ref90","v_dd":0.25}"#,
        )
        .unwrap();
        let c = q(
            "topology",
            r#"{"op":"ring_freq","node":"ref90","v_dd":0.25}"#,
        )
        .unwrap();
        assert_eq!(a.method(), "topology");
        assert!(a.cacheable());
        assert_ne!(a.key(), b.key(), "gate kind must key the response");
        assert_ne!(a.key(), c.key(), "op must key the response");
        assert_eq!(
            q("topology", r#"{"node":"ref90","v_dd":0.25}"#)
                .unwrap_err()
                .0,
            ErrorCode::BadRequest,
            "op is mandatory"
        );
        assert_eq!(
            q(
                "topology",
                r#"{"op":"ring_freq","stages":4,"node":"ref90","v_dd":0.25}"#
            )
            .unwrap_err()
            .0,
            ErrorCode::BadRequest,
            "even rings don't oscillate"
        );
        assert_eq!(
            q(
                "topology",
                r#"{"op":"temp_sweep","temp_k":350,"node":"ref90","v_dd":0.25}"#
            )
            .unwrap_err()
            .0,
            ErrorCode::BadRequest,
            "temp_sweep carries its own temperature axis"
        );
    }

    #[test]
    fn temp_k_keys_circuit_queries() {
        let room = q("snm", r#"{"node":"ref90","v_dd":0.25}"#).unwrap();
        let explicit = q("snm", r#"{"node":"ref90","v_dd":0.25,"temp_k":300}"#).unwrap();
        let hot = q("snm", r#"{"node":"ref90","v_dd":0.25,"temp_k":350}"#).unwrap();
        assert_eq!(room, explicit, "temp_k defaults to room");
        assert_ne!(room.key(), hot.key(), "temperature must key the response");
        assert_eq!(
            q("snm", r#"{"node":"ref90","v_dd":0.25,"temp_k":-5}"#)
                .unwrap_err()
                .0,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn topology_gate_snm_computes_stack_effect() {
        let qy = q(
            "topology",
            r#"{"op":"gate_snm","node":"ref90","v_dd":0.25,"points":41}"#,
        )
        .unwrap();
        let payload = compute(&qy).unwrap();
        let json = parse_json(&payload).unwrap();
        let snm = json.get("snm").and_then(Json::as_f64).unwrap();
        assert!(snm > 0.0 && snm < 0.125, "NAND2 SNM out of range: {snm}");
        let sf = json.get("stack_factor").and_then(Json::as_f64).unwrap();
        assert!(
            sf > 1.0,
            "stack effect must suppress both-off leakage: {sf}"
        );
    }

    #[test]
    fn bad_params_are_typed() {
        assert_eq!(q("idvg", r#"{}"#).unwrap_err().0, ErrorCode::BadRequest);
        assert_eq!(
            q("vtc", r#"{"node":"90nm"}"#).unwrap_err().0,
            ErrorCode::BadRequest,
            "missing v_dd"
        );
        assert!(q("idvg", r#"{"node":"13nm"}"#)
            .unwrap_err()
            .1
            .contains("13nm"));
        assert_eq!(
            q("experiment", r#"{"id":"fig6","backend":"nope"}"#)
                .unwrap_err()
                .0,
            ErrorCode::BadRequest
        );
    }

    /// A present field of the wrong JSON type, an unknown `format` or an
    /// unregistered experiment id is a `bad_request` naming the field —
    /// never silently the default, cached under the default's key, and
    /// never a compute that fails later.
    #[test]
    fn mistyped_fields_are_bad_requests_naming_the_field() {
        for (method, params, field) in [
            ("idvg", r#"{"node":"ref90","v_ds":"1.2"}"#, "v_ds"),
            (
                "snm",
                r#"{"node":"ref90","v_dd":0.3,"temp_k":"400"}"#,
                "temp_k",
            ),
            (
                "vtc",
                r#"{"node":"ref90","v_dd":0.3,"points":3.5}"#,
                "points",
            ),
            ("experiment", r#"{"id":"fig2","format":"CSV"}"#, "format"),
            ("fo1", r#"{"node":45,"v_dd":0.3}"#, "node"),
            ("fo1", r#"{"node":"ref90","v_dd":"0.3"}"#, "v_dd"),
            ("params", r#"{"node":"ref90","backend":null}"#, "backend"),
            ("sleep", r#"{"ms":-1}"#, "ms"),
            ("experiment", r#"{"id":"fig99"}"#, "fig99"),
        ] {
            let (code, msg) = q(method, params).unwrap_err();
            assert_eq!(code, ErrorCode::BadRequest, "{method} {params}");
            assert!(msg.contains(field), "{params}: {msg}");
        }
        let text = q("experiment", r#"{"id":"fig2","format":"text"}"#).unwrap();
        assert_eq!(text, q("experiment", r#"{"id":"fig2"}"#).unwrap());
    }
}
