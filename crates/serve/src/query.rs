//! Typed queries: parsing, canonical cache keys, and compute bodies.
//!
//! A [`Query`] is the parsed, validated, *canonical* form of a request
//! — two wire lines that differ only in whitespace, member order, or
//! `id` produce the same `Query` and therefore the same cache key, so
//! request dedup is semantic rather than textual. The key lives in the
//! engine cache's `serve.resp` namespace; the cached value is the
//! rendered JSON payload packed into the cache's numeric-blob model by
//! [`TextBlob`].

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

impl NodeSel {
    fn absorb(self, kb: KeyBuilder) -> KeyBuilder {
        match self {
            NodeSel::Ref90 => kb.str("ref90"),
            NodeSel::Designed { node, strategy } => kb.str(node.name()).str(strategy.as_str()),
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
        sel: NodeSel,
        /// Device-model backend.
        backend: Backend,
        /// Drain bias.
        v_ds: f64,
        /// Gate biases, ascending.
        v_gs: Vec<f64>,
    },
    /// Extracted subthreshold parameters of a node's NFET.
    Params {
        /// Device under test.
        sel: NodeSel,
        /// Device-model backend.
        backend: Backend,
    },
    /// The designed device descriptions (geometry + doping) at a node.
    Model {
        /// Device under test.
        sel: NodeSel,
        /// Device-model backend (designed flows depend on it).
        backend: Backend,
    },
    /// Voltage-transfer characteristic of the node's inverter.
    Vtc {
        /// Device under test.
        sel: NodeSel,
        /// Device-model backend.
        backend: Backend,
        /// Circuit-metric backend.
        circuit: CircuitBackendKind,
        /// Supply voltage.
        v_dd: f64,
        /// Sample count along the input axis.
        points: usize,
        /// Operating temperature, kelvin.
        temp_k: f64,
    },
    /// Static noise margins from the inverter VTC.
    Snm {
        /// Device under test.
        sel: NodeSel,
        /// Device-model backend.
        backend: Backend,
        /// Circuit-metric backend.
        circuit: CircuitBackendKind,
        /// Supply voltage.
        v_dd: f64,
        /// Operating temperature, kelvin.
        temp_k: f64,
    },
    /// FO1 propagation delay of the node's inverter.
    Fo1 {
        /// Device under test.
        sel: NodeSel,
        /// Device-model backend.
        backend: Backend,
        /// Circuit-metric backend.
        circuit: CircuitBackendKind,
        /// Supply voltage.
        v_dd: f64,
        /// Operating temperature, kelvin.
        temp_k: f64,
    },
    /// Per-cycle energy of the paper's 30-stage chain at one supply.
    ChainEnergy {
        /// Device under test.
        sel: NodeSel,
        /// Device-model backend.
        backend: Backend,
        /// Circuit-metric backend.
        circuit: CircuitBackendKind,
        /// Supply voltage.
        v_dd: f64,
        /// Operating temperature, kelvin.
        temp_k: f64,
    },
    /// Minimum-energy operating point of the paper's chain.
    Mep {
        /// Device under test.
        sel: NodeSel,
        /// Device-model backend.
        backend: Backend,
        /// Circuit-metric backend.
        circuit: CircuitBackendKind,
        /// Operating temperature, kelvin.
        temp_k: f64,
    },
    /// A declarative-topology measurement: the gate-library,
    /// ring-oscillator, and temperature workloads, compiled by
    /// `subvt_circuits::topology` and recalled from the engine's
    /// netlist-keyed caches.
    Topology {
        /// Device under test.
        sel: NodeSel,
        /// Device-model backend.
        backend: Backend,
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

fn parse_sel(params: &Json) -> Result<NodeSel, ParseError> {
    let node = match params.get("node").and_then(Json::as_str) {
        None => return Err(bad("missing string `node` (ref90|90nm|65nm|45nm|32nm)")),
        Some("ref90") => return Ok(NodeSel::Ref90),
        Some(name) => TechNode::ALL
            .iter()
            .copied()
            .find(|n| n.name() == name)
            .ok_or_else(|| bad(format!("unknown node `{name}`")))?,
    };
    let strategy = match params.get("strategy").and_then(Json::as_str) {
        None | Some("subvth") => Strategy::SubVth,
        Some("supervth") => Strategy::SuperVth,
        Some(other) => return Err(bad(format!("unknown strategy `{other}`"))),
    };
    Ok(NodeSel::Designed { node, strategy })
}

fn parse_backend(params: &Json) -> Result<Backend, ParseError> {
    match params.get("backend").and_then(Json::as_str) {
        None => Ok(Backend::Analytic),
        Some(s) => s
            .parse::<Backend>()
            .map_err(|_| bad(format!("unknown backend `{s}` (analytic|tcad)"))),
    }
}

fn parse_circuit(params: &Json) -> Result<CircuitBackendKind, ParseError> {
    match params.get("circuit_backend").and_then(Json::as_str) {
        None => Ok(CircuitBackendKind::Analytic),
        Some(s) => s
            .parse::<CircuitBackendKind>()
            .map_err(|_| bad(format!("unknown circuit_backend `{s}` (analytic|spice)"))),
    }
}

fn parse_v_dd(params: &Json) -> Result<f64, ParseError> {
    let v = params
        .get("v_dd")
        .and_then(Json::as_f64)
        .ok_or_else(|| bad("missing number `v_dd`"))?;
    if !(v.is_finite() && v > 0.0 && v <= 10.0) {
        return Err(bad("`v_dd` must be in (0, 10] volts"));
    }
    Ok(v)
}

/// Parses an optional kelvin-valued field with a default; accepts
/// (0, 1000] so the carrier physics stays in a sane regime.
fn parse_kelvin(params: &Json, field: &str, default: f64) -> Result<f64, ParseError> {
    let t = match params.get(field).and_then(Json::as_f64) {
        None => return Ok(default),
        Some(t) => t,
    };
    if !(t.is_finite() && t > 0.0 && t <= 1000.0) {
        return Err(bad(format!("`{field}` must be in (0, 1000] kelvin")));
    }
    Ok(t)
}

fn parse_temp_k(params: &Json) -> Result<f64, ParseError> {
    parse_kelvin(params, "temp_k", ROOM_K)
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
    /// Parses and validates a request body for `method`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownMethod`] for a method outside the protocol,
    /// [`ErrorCode::BadRequest`] with context for invalid params.
    pub fn from_request(method: &str, params: &Json) -> Result<Self, ParseError> {
        match method {
            "idvg" => Ok(Query::IdVg {
                sel: parse_sel(params)?,
                backend: parse_backend(params)?,
                v_ds: {
                    let v = params.get("v_ds").and_then(Json::as_f64).unwrap_or(0.05);
                    if !(v.is_finite() && v.abs() <= 10.0) {
                        return Err(bad("`v_ds` must be finite and |v_ds| <= 10"));
                    }
                    v
                },
                v_gs: parse_v_gs(params)?,
            }),
            "params" => Ok(Query::Params {
                sel: parse_sel(params)?,
                backend: parse_backend(params)?,
            }),
            "model" => Ok(Query::Model {
                sel: parse_sel(params)?,
                backend: parse_backend(params)?,
            }),
            "vtc" => Ok(Query::Vtc {
                sel: parse_sel(params)?,
                backend: parse_backend(params)?,
                circuit: parse_circuit(params)?,
                v_dd: parse_v_dd(params)?,
                points: {
                    let n = params.get("points").and_then(Json::as_u64).unwrap_or(161);
                    let n = n as usize;
                    if !(2..=MAX_POINTS).contains(&n) {
                        return Err(bad(format!("`points` must be in 2..={MAX_POINTS}")));
                    }
                    n
                },
                temp_k: parse_temp_k(params)?,
            }),
            "snm" => Ok(Query::Snm {
                sel: parse_sel(params)?,
                backend: parse_backend(params)?,
                circuit: parse_circuit(params)?,
                v_dd: parse_v_dd(params)?,
                temp_k: parse_temp_k(params)?,
            }),
            "fo1" => Ok(Query::Fo1 {
                sel: parse_sel(params)?,
                backend: parse_backend(params)?,
                circuit: parse_circuit(params)?,
                v_dd: parse_v_dd(params)?,
                temp_k: parse_temp_k(params)?,
            }),
            "chain_energy" => Ok(Query::ChainEnergy {
                sel: parse_sel(params)?,
                backend: parse_backend(params)?,
                circuit: parse_circuit(params)?,
                v_dd: parse_v_dd(params)?,
                temp_k: parse_temp_k(params)?,
            }),
            "mep" => Ok(Query::Mep {
                sel: parse_sel(params)?,
                backend: parse_backend(params)?,
                circuit: parse_circuit(params)?,
                temp_k: parse_temp_k(params)?,
            }),
            "topology" => {
                let op = match params.get("op").and_then(Json::as_str) {
                    Some(s) => s,
                    None => return Err(bad("missing string `op` (gate_snm|ring_freq|temp_sweep)")),
                };
                let op = match op {
                    "gate_snm" => TopologyOp::GateSnm {
                        gate: match params.get("gate").and_then(Json::as_str) {
                            None | Some("nand2") => GateKind::Nand2,
                            Some("nor2") => GateKind::Nor2,
                            Some(other) => {
                                return Err(bad(format!("unknown gate `{other}` (nand2|nor2)")))
                            }
                        },
                        points: {
                            let n =
                                params.get("points").and_then(Json::as_u64).unwrap_or(121) as usize;
                            if !(2..=MAX_POINTS).contains(&n) {
                                return Err(bad(format!("`points` must be in 2..={MAX_POINTS}")));
                            }
                            n
                        },
                    },
                    "ring_freq" => TopologyOp::RingFreq {
                        stages: {
                            let n =
                                params.get("stages").and_then(Json::as_u64).unwrap_or(5) as usize;
                            if !(3..=63).contains(&n) || n.is_multiple_of(2) {
                                return Err(bad("`stages` must be odd and in 3..=63"));
                            }
                            n
                        },
                        steps: {
                            let n =
                                params.get("steps").and_then(Json::as_u64).unwrap_or(1500) as usize;
                            if !(100..=20_000).contains(&n) {
                                return Err(bad("`steps` must be in 100..=20000"));
                            }
                            n
                        },
                    },
                    "temp_sweep" => {
                        if params.get("temp_k").is_some() {
                            return Err(bad(
                                "`temp_sweep` takes `t_start_k`/`t_stop_k`, not `temp_k`",
                            ));
                        }
                        let t_start_k = parse_kelvin(params, "t_start_k", 250.0)?;
                        let t_stop_k = parse_kelvin(params, "t_stop_k", 400.0)?;
                        if t_start_k >= t_stop_k {
                            return Err(bad("`t_start_k` must be below `t_stop_k`"));
                        }
                        TopologyOp::TempSweep {
                            t_start_k,
                            t_stop_k,
                            points: {
                                let n = params.get("points").and_then(Json::as_u64).unwrap_or(7)
                                    as usize;
                                if !(2..=64).contains(&n) {
                                    return Err(bad("`points` must be in 2..=64"));
                                }
                                n
                            },
                        }
                    }
                    other => {
                        return Err(bad(format!(
                            "unknown op `{other}` (gate_snm|ring_freq|temp_sweep)"
                        )))
                    }
                };
                Ok(Query::Topology {
                    sel: parse_sel(params)?,
                    backend: parse_backend(params)?,
                    op,
                    v_dd: parse_v_dd(params)?,
                    temp_k: parse_temp_k(params)?,
                })
            }
            "experiment" => Ok(Query::Experiment {
                id: params
                    .get("id")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| bad("missing string `id` (try `repro --list`)"))?,
                csv: params
                    .get("format")
                    .and_then(Json::as_str)
                    .map(|f| f == "csv")
                    .unwrap_or(false),
                study: Study {
                    backend: parse_backend(params)?,
                    circuit: parse_circuit(params)?,
                    ..Study::default()
                },
            }),
            "sleep" => Ok(Query::Sleep {
                ms: {
                    let ms = params.get("ms").and_then(Json::as_u64).unwrap_or(100);
                    if ms > 10_000 {
                        return Err(bad("`ms` must be <= 10000"));
                    }
                    ms
                },
                token: params
                    .get("token")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            }),
            "panic" => Ok(Query::Panic {
                token: params
                    .get("token")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            }),
            other => Err((
                ErrorCode::UnknownMethod,
                format!("unknown method `{other}`"),
            )),
        }
    }

    /// The method name this query answers (used in metric names).
    pub fn method(&self) -> &'static str {
        match self {
            Query::IdVg { .. } => "idvg",
            Query::Params { .. } => "params",
            Query::Model { .. } => "model",
            Query::Vtc { .. } => "vtc",
            Query::Snm { .. } => "snm",
            Query::Fo1 { .. } => "fo1",
            Query::ChainEnergy { .. } => "chain_energy",
            Query::Mep { .. } => "mep",
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
    /// the request id).
    pub fn key(&self) -> u64 {
        let kb = KeyBuilder::new("serve.v1").str(self.method());
        match self {
            Query::IdVg {
                sel,
                backend,
                v_ds,
                v_gs,
            } => sel
                .absorb(kb)
                .str(backend.as_str())
                .f64(*v_ds)
                .f64s(v_gs)
                .finish(),
            Query::Params { sel, backend } | Query::Model { sel, backend } => {
                sel.absorb(kb).str(backend.as_str()).finish()
            }
            Query::Vtc {
                sel,
                backend,
                circuit,
                v_dd,
                points,
                temp_k,
            } => sel
                .absorb(kb)
                .str(backend.as_str())
                .str(circuit.as_str())
                .f64(*v_dd)
                .u64(*points as u64)
                .f64(*temp_k)
                .finish(),
            Query::Snm {
                sel,
                backend,
                circuit,
                v_dd,
                temp_k,
            }
            | Query::Fo1 {
                sel,
                backend,
                circuit,
                v_dd,
                temp_k,
            }
            | Query::ChainEnergy {
                sel,
                backend,
                circuit,
                v_dd,
                temp_k,
            } => sel
                .absorb(kb)
                .str(backend.as_str())
                .str(circuit.as_str())
                .f64(*v_dd)
                .f64(*temp_k)
                .finish(),
            Query::Mep {
                sel,
                backend,
                circuit,
                temp_k,
            } => sel
                .absorb(kb)
                .str(backend.as_str())
                .str(circuit.as_str())
                .f64(*temp_k)
                .finish(),
            Query::Topology {
                sel,
                backend,
                op,
                v_dd,
                temp_k,
            } => op
                .absorb(sel.absorb(kb).str(backend.as_str()))
                .f64(*v_dd)
                .f64(*temp_k)
                .finish(),
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

    /// Batch-compatibility key: two `idvg` queries with the same group
    /// key differ only in bias points and can share one executor pass.
    /// `None` for every other method.
    pub fn idvg_group(&self) -> Option<u64> {
        match self {
            Query::IdVg {
                sel, backend, v_ds, ..
            } => Some(
                sel.absorb(KeyBuilder::new("serve.batch").str("idvg"))
                    .str(backend.as_str())
                    .f64(*v_ds)
                    .finish(),
            ),
            _ => None,
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

/// The room-temperature study a `backend` field selects: device
/// methods, and the designs behind circuit methods, resolve through it.
fn room(backend: Backend) -> Study {
    Study {
        backend,
        ..Study::default()
    }
}

/// Resolves the NFET under test: its parameter set and its
/// characterization through `backend`.
///
/// # Errors
///
/// A human-readable message when the backend or a design flow fails.
pub fn device(
    sel: NodeSel,
    backend: Backend,
) -> Result<(DeviceParams, DeviceCharacteristics), String> {
    match sel {
        NodeSel::Ref90 => {
            let params = DeviceParams::reference_90nm_nfet();
            let chars = room(backend)
                .model()
                .characterize(&params)
                .map_err(|e| format!("characterization failed: {e}"))?;
            Ok((params, chars))
        }
        NodeSel::Designed { .. } => {
            let d = design(sel, backend)?;
            Ok((d.nfet, d.nfet_chars))
        }
    }
}

/// The room-temperature design of a node selection.
fn design(sel: NodeSel, backend: Backend) -> Result<NodeDesign, String> {
    let NodeSel::Designed { node, strategy } = sel else {
        return Err("ref90 has no design-flow entry".to_owned());
    };
    let ctx = room(backend)
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

/// The inverter device pair a circuit request measures: sized from the
/// node's room-temperature design (or balanced from the reference NFET)
/// and operated at `temp_k` kelvin, so every downstream characterization
/// — leakage, swing, VTC — sees that temperature. This is the `ext-temp`
/// meaning of temperature. `repro --temp` differs: it re-characterizes
/// the designs at the temperature before sizing the pair, so its PFET
/// widths differ slightly.
///
/// # Errors
///
/// A human-readable message when the backend or a design flow fails.
pub fn pair_at(sel: NodeSel, backend: Backend, temp_k: f64) -> Result<CmosPair, String> {
    let room = room(backend);
    let pair = match sel {
        NodeSel::Ref90 => {
            CmosPair::balanced_with(room.model(), DeviceParams::reference_90nm_nfet())
                .map_err(|e| format!("characterization failed: {e}"))?
        }
        NodeSel::Designed { .. } => room.pair(&design(sel, backend)?),
    };
    Ok(pair.at_temperature(Temperature::from_kelvin(temp_k)))
}

/// Evaluates the drain current at every `v_gs` bias in one pass over
/// the engine pool — the shared body of single and batched `idvg`.
///
/// # Errors
///
/// A human-readable message when device resolution fails.
pub fn idvg_currents(
    sel: NodeSel,
    backend: Backend,
    v_ds: f64,
    v_gs: &[f64],
) -> Result<Vec<f64>, String> {
    let (params, chars) = device(sel, backend)?;
    let model = MosModel::from_device(&params, &chars);
    let vds = Volts::new(v_ds);
    Ok(subvt_engine::global().map(v_gs.to_vec(), move |v| {
        model.drain_current(Volts::new(v), vds).get()
    }))
}

/// Renders the `idvg` payload for one bias list.
pub fn idvg_payload(v_gs: &[f64], i_d: &[f64]) -> String {
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
fn compute_topology(
    sel: NodeSel,
    backend: Backend,
    op: TopologyOp,
    v_dd: f64,
    temp_k: f64,
) -> Result<String, String> {
    let v = Volts::new(v_dd);
    match op {
        TopologyOp::GateSnm { gate, points } => {
            let pair = pair_at(sel, backend, temp_k)?;
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
            let pair = pair_at(sel, backend, temp_k)?;
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
                let pair = pair_at(sel, backend, tk)?;
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
        Query::IdVg {
            sel,
            backend,
            v_ds,
            v_gs,
        } => {
            let i_d = idvg_currents(*sel, *backend, *v_ds, v_gs)?;
            Ok(idvg_payload(v_gs, &i_d))
        }
        Query::Params { sel, backend } => {
            let (_, chars) = device(*sel, *backend)?;
            Ok(chars_payload(&chars))
        }
        Query::Model { sel, backend } => {
            let (nfet, pfet, node) = match *sel {
                NodeSel::Ref90 => {
                    let (n, _) = device(*sel, *backend)?;
                    let p = DeviceParams {
                        kind: DeviceKind::Pfet,
                        ..n
                    };
                    (n, p, "ref90")
                }
                NodeSel::Designed { node, .. } => {
                    let d = design(*sel, *backend)?;
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
        Query::Vtc {
            sel,
            backend,
            circuit,
            v_dd,
            points,
            temp_k,
        } => {
            let pair = pair_at(*sel, *backend, *temp_k)?;
            let vtc = circuit
                .instance()
                .vtc(&pair, Volts::new(*v_dd), *points)
                .map_err(|e| format!("vtc failed: {e}"))?;
            Ok(format!(
                "{{\"v_dd\":{},\"v_in\":{},\"v_out\":{}}}",
                fmt_f64(vtc.v_dd),
                fmt_f64s(&vtc.v_in),
                fmt_f64s(&vtc.v_out),
            ))
        }
        Query::Snm {
            sel,
            backend,
            circuit,
            v_dd,
            temp_k,
        } => {
            let pair = pair_at(*sel, *backend, *temp_k)?;
            let vtc = circuit
                .instance()
                .vtc(&pair, Volts::new(*v_dd), 161)
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
        Query::Fo1 {
            sel,
            backend,
            circuit,
            v_dd,
            temp_k,
        } => {
            let pair = pair_at(*sel, *backend, *temp_k)?;
            let d = circuit
                .instance()
                .fo1_delay(&pair, Volts::new(*v_dd))
                .map_err(|e| format!("fo1 failed: {e}"))?;
            Ok(format!(
                "{{\"tp_hl_s\":{},\"tp_lh_s\":{},\"average_s\":{}}}",
                fmt_f64(d.tp_hl.get()),
                fmt_f64(d.tp_lh.get()),
                fmt_f64(d.average().get()),
            ))
        }
        Query::ChainEnergy {
            sel,
            backend,
            circuit,
            v_dd,
            temp_k,
        } => {
            let chain = InverterChain::paper_chain(pair_at(*sel, *backend, *temp_k)?);
            let e = circuit
                .instance()
                .chain_energy(&chain, Volts::new(*v_dd))
                .map_err(|e| format!("chain_energy failed: {e}"))?;
            Ok(energy_payload(&e))
        }
        Query::Mep {
            sel,
            backend,
            circuit,
            temp_k,
        } => {
            let chain = InverterChain::paper_chain(pair_at(*sel, *backend, *temp_k)?);
            let mep = circuit
                .instance()
                .minimum_energy_point(&chain)
                .map_err(|e| format!("mep failed: {e}"))?;
            Ok(format!(
                "{{\"v_min\":{},\"energy_j\":{},\"point\":{}}}",
                fmt_f64(mep.v_min.get()),
                fmt_f64(mep.energy.get()),
                energy_payload(&mep.point),
            ))
        }
        Query::Topology {
            sel,
            backend,
            op,
            v_dd,
            temp_k,
        } => compute_topology(*sel, *backend, *op, *v_dd, *temp_k),
        Query::Experiment { id, csv, study } => {
            let table = study
                .run(id)
                .ok_or_else(|| format!("unknown experiment `{id}`"))?;
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
    fn idvg_groups_ignore_bias_points_only() {
        let a = q("idvg", r#"{"node":"ref90","v_ds":0.05,"v_gs":[0.1,0.2]}"#).unwrap();
        let b = q("idvg", r#"{"node":"ref90","v_ds":0.05,"v_gs":[0.3]}"#).unwrap();
        let c = q("idvg", r#"{"node":"ref90","v_ds":1.2,"v_gs":[0.3]}"#).unwrap();
        assert_ne!(a.key(), b.key());
        assert_eq!(a.idvg_group(), b.idvg_group());
        assert_ne!(b.idvg_group(), c.idvg_group());
        assert_eq!(
            q("ping_or_other", "{}").unwrap_err().0,
            ErrorCode::UnknownMethod
        );
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
        let i_d = idvg_currents(NodeSel::Ref90, Backend::Analytic, 0.05, &v_gs).unwrap();
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
}
