//! Declarative topology layer: typed cells and testbenches compiled to
//! netlists plus measurement plans.
//!
//! Every cell netlist this crate simulates is produced here. (The one
//! other deck, the single-transistor bias deck of
//! `delay::drive_current_deck`, is not a cell: the spice Monte-Carlo
//! sweep builds it once and re-thresholds it per sample.) A [`CellSpec`]
//! names *what* is wired (the cell topology, the device pair that
//! populates it and the output load); a [`Testbench`] names *how* it is
//! excited and observed (a DC transfer sweep, a delay or energy
//! transient, a static-leakage vector, or a free-running oscillation).
//! [`CellSpec::compile`] deterministically lowers the two into a
//! [`CompiledBench`]: a [`subvt_spice::Netlist`] and a [`MeasurePlan`]
//! describing the solve and the probes.
//!
//! The compiler is the single source of node ordering, element naming
//! and stimulus timing, so two callers asking for the same measurement
//! always solve the same deck — and [`CompiledBench::key`] derives the
//! one canonical cache key (device-model id + the [`Netlist`]'s
//! [`subvt_engine::Keyed`] content stream + the plan's solve
//! parameters). [`CompiledBench::recall`] is the crate's one memoized
//! measurement path: the spice circuit backend and the cached
//! gate/ring/temperature evaluators below all go through it.

use subvt_engine::{global_cache, KeyBuilder, Keyed};
use subvt_spice::measure::{crossing_time, Edge};
use subvt_spice::mna::{dc_operating_point, dc_sweep, DcSolution, SpiceError};
use subvt_spice::netlist::{Element, Netlist, NodeId, Waveform};
use subvt_spice::transient::{
    transient, transient_from, Integrator, TransientResult, TransientSpec,
};
use subvt_units::{Seconds, Volts};

use subvt_physics::math::linspace;

use crate::delay::analytic_fo1_delay;
use crate::gates::{Gate2, GateKind, OtherInput};
use crate::inverter::{CmosPair, Inverter, Vtc};

/// A cell topology. The device sizing comes from the [`CellSpec`]'s
/// [`CmosPair`]; the cell only names the wiring pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A single static CMOS inverter.
    Inverter,
    /// Two-input NAND: series NFET stack, parallel PFETs.
    Nand2,
    /// Two-input NOR: parallel NFETs, series PFET stack.
    Nor2,
    /// `n` identical inverters in series (delay/energy chains).
    InverterChain(usize),
    /// An `n`-stage ring oscillator (`n` odd, ≥ 3).
    RingOsc(usize),
    /// The read-disturbed half of a 6T SRAM cell: one storage inverter
    /// plus an NFET access device of the given width against a
    /// precharged bit-line.
    SramCell {
        /// Access transistor width in microns.
        w_access_um: f64,
    },
}

impl Cell {
    /// Short stable name used in error messages and cache-key tags.
    pub fn name(&self) -> &'static str {
        match self {
            Cell::Inverter => "inverter",
            Cell::Nand2 => "nand2",
            Cell::Nor2 => "nor2",
            Cell::InverterChain(_) => "chain",
            Cell::RingOsc(_) => "ringosc",
            Cell::SramCell { .. } => "sram",
        }
    }
}

/// Explicit load at the cell output, beyond the cell's own parasitics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// No explicit load.
    None,
    /// A grounded capacitor worth `f` inverter inputs of the spec's pair
    /// (fan-out-of-`f` termination).
    Fanout(f64),
    /// A grounded capacitor of fixed value, farads. For [`Cell::RingOsc`]
    /// this is the per-stage wiring capacitance.
    Farads(f64),
}

/// A sized, loaded cell instance — the unit the compiler wires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// The wiring pattern.
    pub cell: Cell,
    /// The complementary device pair populating every stage.
    pub pair: CmosPair,
    /// Output load.
    pub load: Load,
}

/// Static input vector for a [`Testbench::Leakage`] bench: the logic
/// level of each cell input (`true` = tied to `V_dd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputVector {
    /// One-input cells (inverter).
    One(bool),
    /// Two-input cells (NAND2/NOR2): `(a, b)`.
    Two(bool, bool),
}

impl InputVector {
    /// Wire-format name, e.g. `"01"`, used in tables and request params.
    pub fn name(&self) -> &'static str {
        match self {
            InputVector::One(false) => "0",
            InputVector::One(true) => "1",
            InputVector::Two(false, false) => "00",
            InputVector::Two(false, true) => "01",
            InputVector::Two(true, false) => "10",
            InputVector::Two(true, true) => "11",
        }
    }
}

/// Transient stimulus flavour for [`Testbench::Transient`]. Pulse timing
/// is derived from the pair's analytic FO1 delay at the bench supply, so
/// the window scales with the operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stimulus {
    /// One full 0→1→0 pulse through a chain; both propagation edges of
    /// the middle stage are measured ([`MeasurePlan::Edges`]).
    DelayPulse,
    /// The input starts high (output low) and falls once: the rising
    /// output edge draws the switching charge from the supply
    /// ([`MeasurePlan::SupplyEnergy`]).
    EnergyPulse,
}

/// How a compiled cell is excited and observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Testbench {
    /// DC transfer sweep of the primary input from 0 to `V_dd`.
    Vtc {
        /// Supply voltage.
        v_dd: Volts,
        /// Sweep sample count (min 2).
        points: usize,
        /// Wiring of the non-swept input of two-input cells; ignored by
        /// one-input cells.
        other: OtherInput,
    },
    /// Transient pulse response.
    Transient {
        /// Supply voltage.
        v_dd: Volts,
        /// Stimulus flavour.
        stimulus: Stimulus,
        /// Transient step count.
        steps: usize,
    },
    /// DC operating point with every input pinned to a static vector;
    /// the plan reads the supply's static current.
    Leakage {
        /// Supply voltage.
        v_dd: Volts,
        /// The pinned input vector.
        inputs: InputVector,
    },
    /// Free-running limit cycle ([`Cell::RingOsc`] only).
    Oscillation {
        /// Supply voltage.
        v_dd: Volts,
        /// Transient step count (min 500).
        steps: usize,
    },
}

impl Testbench {
    fn v_dd(&self) -> Volts {
        match self {
            Testbench::Vtc { v_dd, .. }
            | Testbench::Transient { v_dd, .. }
            | Testbench::Leakage { v_dd, .. }
            | Testbench::Oscillation { v_dd, .. } => *v_dd,
        }
    }
}

/// The measurement half of a compiled bench: what to solve and where to
/// probe. Every variant carries the full solve parameterization, so the
/// plan plus the netlist determine the result — that is the cache-key
/// contract [`CompiledBench::key`] encodes.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasurePlan {
    /// Sweep the named source from 0 to `v_stop` with `points` samples
    /// and record the voltage at `output`.
    DcTransfer {
        /// Name of the swept voltage source.
        source: &'static str,
        /// Sweep end value (the bench supply), volts.
        v_stop: f64,
        /// Sample count.
        points: usize,
        /// Node whose voltage forms the transfer curve.
        output: NodeId,
    },
    /// Run a transient to `t_stop` and read both propagation delays of
    /// the stage between `input` and `output` at the half-swing level.
    Edges {
        /// Transient window, seconds.
        t_stop: f64,
        /// Step count.
        steps: usize,
        /// Input node of the measured stage.
        input: NodeId,
        /// Output node of the measured stage.
        output: NodeId,
        /// Swing (the bench supply), volts.
        v_dd: f64,
    },
    /// Run a transient to `t_stop` and integrate the supply branch for
    /// delivered switching energy.
    SupplyEnergy {
        /// Transient window, seconds.
        t_stop: f64,
        /// Step count.
        steps: usize,
        /// The supply node.
        supply: NodeId,
        /// The supply's MNA branch index.
        branch: usize,
        /// Supply value, volts.
        v_dd: f64,
    },
    /// Solve the DC operating point and read the static current
    /// delivered by the supply branch.
    StaticCurrent {
        /// The supply's MNA branch index.
        branch: usize,
    },
    /// Run a transient from the initial state `x0` to `t_stop` and
    /// measure the limit-cycle period from rising crossings at `probe`.
    LimitCycle {
        /// Transient window, seconds.
        t_stop: f64,
        /// Step count.
        steps: usize,
        /// Node whose crossings define the period.
        probe: NodeId,
        /// Initial node voltages (asymmetric start, off the metastable
        /// DC point).
        x0: Vec<f64>,
        /// Supply (crossing level is `v_dd/2`), volts.
        v_dd: f64,
        /// Stage count (period → per-stage delay conversion).
        stages: usize,
    },
}

impl Keyed for MeasurePlan {
    fn absorb(&self, kb: KeyBuilder) -> KeyBuilder {
        match self {
            MeasurePlan::DcTransfer {
                source,
                v_stop,
                points,
                output,
            } => kb
                .str("dc")
                .str(source)
                .f64(*v_stop)
                .u64(*points as u64)
                .u64(*output as u64),
            MeasurePlan::Edges {
                t_stop,
                steps,
                input,
                output,
                v_dd,
            } => kb
                .str("edges")
                .f64(*t_stop)
                .u64(*steps as u64)
                .u64(*input as u64)
                .u64(*output as u64)
                .f64(*v_dd),
            MeasurePlan::SupplyEnergy {
                t_stop,
                steps,
                supply,
                branch,
                v_dd,
            } => kb
                .str("energy")
                .f64(*t_stop)
                .u64(*steps as u64)
                .u64(*supply as u64)
                .u64(*branch as u64)
                .f64(*v_dd),
            MeasurePlan::StaticCurrent { branch } => kb.str("static").u64(*branch as u64),
            MeasurePlan::LimitCycle {
                t_stop,
                steps,
                probe,
                x0,
                v_dd,
                stages,
            } => kb
                .str("osc")
                .f64(*t_stop)
                .u64(*steps as u64)
                .u64(*probe as u64)
                .f64s(x0)
                .f64(*v_dd)
                .u64(*stages as u64),
        }
    }
}

impl MeasurePlan {
    /// The engine-cache namespace and length of the record a
    /// measurement of this plan stores: DC plans in `spice.vtc` (the
    /// transfer curve's output samples, or the one static current),
    /// transient plans in `spice.tran` (two scalars: `(t_pHL, t_pLH)`,
    /// `(switching energy, static leakage)` or `(period, stage delay)`).
    fn record_shape(&self) -> (&'static str, usize) {
        match self {
            MeasurePlan::DcTransfer { points, .. } => ("spice.vtc", *points),
            MeasurePlan::StaticCurrent { .. } => ("spice.vtc", 1),
            MeasurePlan::Edges { .. }
            | MeasurePlan::SupplyEnergy { .. }
            | MeasurePlan::LimitCycle { .. } => ("spice.tran", 2),
        }
    }
}

/// A cell/testbench combination the compiler cannot lower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedBench {
    /// The cell's [`Cell::name`].
    pub cell: &'static str,
    /// What was asked of it.
    pub bench: &'static str,
}

impl core::fmt::Display for UnsupportedBench {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cell `{}` has no `{}` testbench", self.cell, self.bench)
    }
}

impl std::error::Error for UnsupportedBench {}

/// A compiled bench: the deck plus its measurement plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledBench {
    /// The assembled netlist.
    pub net: Netlist,
    /// The solve-and-probe plan.
    pub plan: MeasurePlan,
}

impl CellSpec {
    /// An unloaded inverter spec.
    pub fn inverter(pair: CmosPair) -> Self {
        Self {
            cell: Cell::Inverter,
            pair,
            load: Load::None,
        }
    }

    /// An unloaded two-input gate spec.
    pub fn gate(kind: GateKind, pair: CmosPair) -> Self {
        Self {
            cell: match kind {
                GateKind::Nand2 => Cell::Nand2,
                GateKind::Nor2 => Cell::Nor2,
            },
            pair,
            load: Load::None,
        }
    }

    /// The explicit load in farads at the bench supply, if any.
    fn load_farads(&self, pair: &CmosPair) -> Option<f64> {
        match self.load {
            Load::None => None,
            Load::Fanout(f) => Some(f * pair.input_capacitance()),
            Load::Farads(c) => Some(c),
        }
    }

    /// Compiles this cell under the given testbench into a netlist and
    /// measurement plan. Compilation is deterministic: node creation
    /// order, element names and stimulus timing are fixed functions of
    /// the spec, so identical specs always produce identical decks.
    ///
    /// # Errors
    ///
    /// [`UnsupportedBench`] when the cell has no such bench (e.g.
    /// [`Testbench::Oscillation`] on an inverter) or the cell shape is
    /// invalid (even-stage ring, zero-stage chain).
    pub fn compile(&self, bench: &Testbench) -> Result<CompiledBench, UnsupportedBench> {
        let unsupported = |what: &'static str| UnsupportedBench {
            cell: self.cell.name(),
            bench: what,
        };
        let v_dd = bench.v_dd();
        let pair = self.pair.at_supply(v_dd);
        let vdd = v_dd.as_volts();
        match (self.cell, bench) {
            (Cell::Inverter, Testbench::Vtc { points, .. }) => {
                let inv = Inverter::new(pair);
                let mut net = Netlist::new();
                let vdd_node = net.node("vdd");
                let vin = net.node("in");
                let vout = net.node("out");
                net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd));
                net.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(0.0));
                inv.wire(&mut net, "X1", vin, vout, vdd_node);
                if let Some(c) = self.load_farads(&pair) {
                    net.capacitor("CL", vout, Netlist::GROUND, c);
                }
                Ok(CompiledBench {
                    net,
                    plan: MeasurePlan::DcTransfer {
                        source: "VIN",
                        v_stop: vdd,
                        points: (*points).max(2),
                        output: vout,
                    },
                })
            }
            (Cell::Nand2 | Cell::Nor2, Testbench::Vtc { points, other, .. }) => {
                let gate = Gate2 {
                    pair,
                    kind: self.gate_kind(),
                };
                let mut net = Netlist::new();
                let vdd_node = net.node("vdd");
                let a = net.node("a");
                let out = net.node("out");
                net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd));
                net.vsource("VA", a, Netlist::GROUND, Waveform::Dc(0.0));
                let b = match other {
                    OtherInput::Common => a,
                    OtherInput::High => vdd_node,
                    OtherInput::Low => Netlist::GROUND,
                };
                gate.wire(&mut net, "X1", a, b, out, vdd_node);
                if let Some(c) = self.load_farads(&pair) {
                    net.capacitor("CL", out, Netlist::GROUND, c);
                }
                Ok(CompiledBench {
                    net,
                    plan: MeasurePlan::DcTransfer {
                        source: "VA",
                        v_stop: vdd,
                        points: (*points).max(2),
                        output: out,
                    },
                })
            }
            (Cell::SramCell { w_access_um }, Testbench::Vtc { points, .. }) => {
                let inv = Inverter::new(pair);
                let mut net = Netlist::new();
                let vdd_node = net.node("vdd");
                let vin = net.node("in");
                let vout = net.node("out");
                let bitline = net.node("bl");
                net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd));
                net.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(0.0));
                net.vsource("VBL", bitline, Netlist::GROUND, Waveform::Dc(vdd));
                inv.wire(&mut net, "X1", vin, vout, vdd_node);
                // Access NFET: gate at the word-line (V_dd during read),
                // wired between the storage node and the precharged
                // bit-line.
                net.mosfet(
                    "MA",
                    pair.nfet_model(),
                    w_access_um,
                    bitline,
                    vdd_node,
                    vout,
                );
                Ok(CompiledBench {
                    net,
                    plan: MeasurePlan::DcTransfer {
                        source: "VIN",
                        v_stop: vdd,
                        points: (*points).max(2),
                        output: vout,
                    },
                })
            }
            (
                Cell::InverterChain(n),
                Testbench::Transient {
                    stimulus: Stimulus::DelayPulse,
                    steps,
                    ..
                },
            ) => {
                if n < 2 {
                    return Err(unsupported("delay transient (needs ≥ 2 stages)"));
                }
                let inv = Inverter::new(pair);
                let tp0 = analytic_fo1_delay(&pair, v_dd).get().max(1e-15);
                let mut net = Netlist::new();
                let vdd_node = net.node("vdd");
                // n stages need n+1 signal nodes; the historical 3-stage
                // deck names them a..d, longer chains continue s4, s5, …
                let names = ["a", "b", "c", "d"];
                let nodes: Vec<NodeId> = (0..=n)
                    .map(|i| match names.get(i) {
                        Some(nm) => net.node(nm),
                        None => net.node(&format!("s{i}")),
                    })
                    .collect();
                net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd));
                // One full pulse: rising edge then falling edge, both
                // measured.
                net.vsource(
                    "VIN",
                    nodes[0],
                    Netlist::GROUND,
                    Waveform::Pulse {
                        v0: 0.0,
                        v1: vdd,
                        delay: 4.0 * tp0,
                        rise: tp0,
                        fall: tp0,
                        width: 16.0 * tp0,
                        period: f64::INFINITY,
                    },
                );
                for i in 1..=n {
                    inv.wire(&mut net, &format!("X{i}"), nodes[i - 1], nodes[i], vdd_node);
                }
                if let Some(c) = self.load_farads(&pair) {
                    net.capacitor("CL", nodes[n], Netlist::GROUND, c);
                }
                // The measured stage is the middle one: its input has
                // been shaped by a real stage and its output still drives
                // a real stage.
                let mid = n / 2;
                Ok(CompiledBench {
                    net,
                    plan: MeasurePlan::Edges {
                        t_stop: 40.0 * tp0,
                        steps: (*steps).max(200),
                        input: nodes[mid],
                        output: nodes[mid + 1],
                        v_dd: vdd,
                    },
                })
            }
            (
                Cell::Inverter,
                Testbench::Transient {
                    stimulus: Stimulus::EnergyPulse,
                    steps,
                    ..
                },
            ) => {
                let tp0 = analytic_fo1_delay(&pair, v_dd).get().max(1e-15);
                let input = Waveform::Pulse {
                    v0: vdd,
                    v1: 0.0,
                    delay: 4.0 * tp0,
                    rise: tp0,
                    fall: tp0,
                    width: 40.0 * tp0,
                    period: f64::INFINITY,
                };
                let (net, vdd_node) = self.energy_deck(&pair, vdd, input);
                Ok(CompiledBench {
                    net,
                    plan: MeasurePlan::SupplyEnergy {
                        t_stop: 24.0 * tp0,
                        steps: (*steps).max(2),
                        supply: vdd_node,
                        branch: 0,
                        v_dd: vdd,
                    },
                })
            }
            (Cell::Inverter, Testbench::Leakage { inputs, .. }) => {
                let v_in = match inputs {
                    InputVector::One(high) => {
                        if *high {
                            vdd
                        } else {
                            0.0
                        }
                    }
                    InputVector::Two(..) => return Err(unsupported("two-input leakage vector")),
                };
                let (net, _) = self.energy_deck(&pair, vdd, Waveform::Dc(v_in));
                Ok(CompiledBench {
                    net,
                    plan: MeasurePlan::StaticCurrent { branch: 0 },
                })
            }
            (Cell::Nand2 | Cell::Nor2, Testbench::Leakage { inputs, .. }) => {
                let (va, vb) = match inputs {
                    InputVector::Two(a, b) => {
                        (if *a { vdd } else { 0.0 }, if *b { vdd } else { 0.0 })
                    }
                    InputVector::One(_) => return Err(unsupported("one-input leakage vector")),
                };
                let gate = Gate2 {
                    pair,
                    kind: self.gate_kind(),
                };
                let mut net = Netlist::new();
                let vdd_node = net.node("vdd");
                let a = net.node("a");
                let b = net.node("b");
                let out = net.node("out");
                net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd));
                net.vsource("VA", a, Netlist::GROUND, Waveform::Dc(va));
                net.vsource("VB", b, Netlist::GROUND, Waveform::Dc(vb));
                gate.wire(&mut net, "X1", a, b, out, vdd_node);
                Ok(CompiledBench {
                    net,
                    plan: MeasurePlan::StaticCurrent { branch: 0 },
                })
            }
            (Cell::RingOsc(n), Testbench::Oscillation { steps, .. }) => {
                if n < 3 || n % 2 == 0 {
                    return Err(unsupported("oscillation (needs an odd stage count ≥ 3)"));
                }
                let inv = Inverter::new(pair);
                let tp0 = analytic_fo1_delay(&pair, v_dd).get();
                let mut net = Netlist::new();
                let vdd_node = net.node("vdd");
                net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd));
                let nodes: Vec<NodeId> = (0..n).map(|i| net.node(&format!("n{i}"))).collect();
                let c_wire = self.load_farads(&pair).unwrap_or(0.0);
                for i in 0..n {
                    let input = nodes[i];
                    let output = nodes[(i + 1) % n];
                    inv.wire(&mut net, &format!("X{i}"), input, output, vdd_node);
                    // Explicit wiring capacitance keeps every node
                    // dynamic.
                    if c_wire > 0.0 {
                        net.capacitor(&format!("Cw{i}"), output, Netlist::GROUND, c_wire);
                    }
                }
                // A DC operating point would settle at the metastable
                // midpoint, so start from an asymmetric initial condition
                // instead: alternate rails around the loop (any
                // non-equilibrium start converges to the limit cycle).
                let mut x0 = vec![0.0; net.node_count()];
                x0[vdd_node] = vdd;
                for (i, &node) in nodes.iter().enumerate() {
                    x0[node] = if i % 2 == 0 { vdd } else { 0.0 };
                }
                Ok(CompiledBench {
                    net,
                    plan: MeasurePlan::LimitCycle {
                        t_stop: 8.0 * n as f64 * tp0,
                        steps: (*steps).max(500),
                        probe: nodes[0],
                        x0,
                        v_dd: vdd,
                        stages: n,
                    },
                })
            }
            (_, Testbench::Vtc { .. }) => Err(unsupported("vtc")),
            (_, Testbench::Transient { .. }) => Err(unsupported("transient")),
            (_, Testbench::Leakage { .. }) => Err(unsupported("leakage")),
            (_, Testbench::Oscillation { .. }) => Err(unsupported("oscillation")),
        }
    }

    fn gate_kind(&self) -> GateKind {
        match self.cell {
            Cell::Nand2 => GateKind::Nand2,
            Cell::Nor2 => GateKind::Nor2,
            _ => unreachable!("gate_kind on a non-gate cell"),
        }
    }

    /// The shared inverter energy/leakage deck: supply, driven input,
    /// one wired stage and the explicit load.
    fn energy_deck(&self, pair: &CmosPair, vdd: f64, input: Waveform) -> (Netlist, NodeId) {
        let inv = Inverter::new(*pair);
        let mut net = Netlist::new();
        let vdd_node = net.node("vdd");
        let vin = net.node("in");
        let vout = net.node("out");
        net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd));
        net.vsource("VIN", vin, Netlist::GROUND, input);
        inv.wire(&mut net, "X1", vin, vout, vdd_node);
        if let Some(c) = self.load_farads(pair) {
            net.capacitor("CL", vout, Netlist::GROUND, c);
        }
        (net, vdd_node)
    }
}

impl CompiledBench {
    /// The canonical cache key of this bench: a tag, the device-model
    /// identity, the netlist's full content stream and the plan's solve
    /// parameters. Any change to the deck, the devices behind it or the
    /// solve resolution changes the key.
    pub fn key(&self, tag: &str, model_id: &str) -> u64 {
        KeyBuilder::new(tag)
            .str(model_id)
            .keyed(&self.net)
            .keyed(&self.plan)
            .finish()
    }

    /// The crate's one memoized measurement path: recalls this bench's
    /// record from the engine cache, or runs `measure` on a miss and
    /// stores what it returns. The namespace follows the plan (DC plans
    /// in `spice.vtc`, transient plans in `spice.tran`) and the key is
    /// [`CompiledBench::key`]`(tag, model_id)`. The solver counts its own
    /// work, so a hit adds no `spice.*` solver counts.
    ///
    /// # Errors
    ///
    /// Propagates `measure`'s error. A record of the wrong length for the
    /// plan (a foreign or corrupt cache entry) reports as a zero-iteration
    /// [`SpiceError::NoConvergence`], like every failed measurement.
    pub fn recall<E: From<SpiceError>>(
        &self,
        tag: &str,
        model_id: &str,
        measure: impl FnOnce() -> Result<Vec<f64>, E>,
    ) -> Result<Vec<f64>, E> {
        let (ns, len) = self.plan.record_shape();
        let rec = global_cache().try_get_or_compute(ns, self.key(tag, model_id), measure)?;
        if rec.len() == len {
            Ok(rec)
        } else {
            Err(MEASUREMENT_FAILED.into())
        }
    }

    /// Runs a [`MeasurePlan::DcTransfer`] plan and assembles the
    /// transfer curve. Uncached, counted by the solver.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from the solver.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not a DC transfer.
    pub fn run_transfer(&self) -> Result<Vtc, SpiceError> {
        let MeasurePlan::DcTransfer {
            source,
            v_stop,
            points,
            output,
        } = &self.plan
        else {
            panic!("run_transfer on a non-transfer plan");
        };
        let sweep = linspace(0.0, *v_stop, *points);
        let sols = dc_sweep(&self.net, source, &sweep)?;
        Ok(Vtc {
            v_in: sweep,
            v_out: sols.iter().map(|s| s.node_voltages[*output]).collect(),
            v_dd: *v_stop,
        })
    }

    /// The transfer curve of a [`MeasurePlan::DcTransfer`] bench through
    /// [`CompiledBench::recall`] under `tag`.
    fn recall_transfer(&self, tag: &str, pair: &CmosPair) -> Result<Vtc, SpiceError> {
        let v_out = self.recall(tag, &pair.model().cache_id(), || {
            Ok(self.run_transfer()?.v_out)
        })?;
        let MeasurePlan::DcTransfer { v_stop, points, .. } = self.plan else {
            unreachable!("recall_transfer on a non-transfer plan");
        };
        Ok(Vtc {
            v_in: linspace(0.0, v_stop, points),
            v_out,
            v_dd: v_stop,
        })
    }

    /// Solves the DC operating point of a [`MeasurePlan::StaticCurrent`]
    /// bench and returns the static current the supply delivers, amps.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from the solver.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not a static-current plan.
    pub fn run_static_current(&self) -> Result<f64, SpiceError> {
        let MeasurePlan::StaticCurrent { branch } = self.plan else {
            panic!("run_static_current on a non-static plan");
        };
        let sol = dc_operating_point(&self.net)?;
        // Delivered current is −i_branch on the supply source.
        Ok(-sol.branch_currents[branch])
    }

    /// Runs the transient of an [`MeasurePlan::Edges`],
    /// [`MeasurePlan::SupplyEnergy`] or [`MeasurePlan::LimitCycle`]
    /// plan (trapezoidal, with the plan's window and step count, from
    /// the plan's initial state when it has one).
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from the solver.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no transient solve.
    pub fn run_transient(&self) -> Result<TransientResult, SpiceError> {
        match &self.plan {
            MeasurePlan::Edges { t_stop, steps, .. }
            | MeasurePlan::SupplyEnergy { t_stop, steps, .. } => {
                let spec = TransientSpec::with_steps(*t_stop, *steps, Integrator::Trapezoidal);
                transient(&self.net, spec)
            }
            MeasurePlan::LimitCycle {
                t_stop, steps, x0, ..
            } => {
                let spec = TransientSpec::with_steps(*t_stop, *steps, Integrator::Trapezoidal);
                let n_sources = self
                    .net
                    .elements()
                    .iter()
                    .filter(|e| matches!(e.element, Element::VSource { .. }))
                    .count();
                let x0 = DcSolution {
                    node_voltages: x0.clone(),
                    branch_currents: vec![0.0; n_sources],
                    iterations: 0,
                };
                transient_from(&self.net, spec, &x0)
            }
            _ => panic!("run_transient on a DC plan"),
        }
    }

    /// Reads both propagation delays of an [`MeasurePlan::Edges`] bench
    /// off its transient result. `None` when the half-swing crossings
    /// cannot be found.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not an edges plan.
    pub fn measure_edges(&self, res: &TransientResult) -> Option<crate::delay::Fo1Delay> {
        let MeasurePlan::Edges {
            input,
            output,
            v_dd,
            ..
        } = &self.plan
        else {
            panic!("measure_edges on a non-edges plan");
        };
        crate::delay::measure_fo1(res, *input, *output, *v_dd)
    }

    /// Extracts the limit-cycle period of a [`MeasurePlan::LimitCycle`]
    /// bench from its transient result: the spacing between the last two
    /// rising half-swing crossings at the probe (skipping the start-up
    /// transient). `None` when fewer than three crossings occurred.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not a limit-cycle plan.
    pub fn measure_oscillation(&self, res: &TransientResult) -> Option<RingOscillation> {
        let MeasurePlan::LimitCycle {
            probe,
            v_dd,
            stages,
            ..
        } = &self.plan
        else {
            panic!("measure_oscillation on a non-oscillation plan");
        };
        let mut crossings = Vec::new();
        let mut nth = 0;
        while let Some(t) = crossing_time(res, *probe, v_dd / 2.0, Edge::Rising, nth) {
            crossings.push(t);
            nth += 1;
            if nth > 256 {
                break;
            }
        }
        if crossings.len() < 3 {
            return None;
        }
        let k = crossings.len();
        let period = crossings[k - 1] - crossings[k - 2];
        Some(RingOscillation {
            period: Seconds::new(period),
            stage_delay: Seconds::new(period / (2.0 * *stages as f64)),
        })
    }
}

/// Measured ring-oscillator behaviour (an independent delay cross-check:
/// `f_osc = 1/(2·N·t_p)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingOscillation {
    /// Oscillation period.
    pub period: Seconds,
    /// Implied per-stage delay `T/(2·N)`.
    pub stage_delay: Seconds,
}

/// Degenerate measurement surfaced through the solver's error type (no
/// crossings, an un-invertible or non-restoring curve, a malformed cache
/// record) — the crate's one fake non-convergence.
pub(crate) const MEASUREMENT_FAILED: SpiceError = SpiceError::NoConvergence {
    iterations: 0,
    residual: f64::NAN,
};

// ---------------------------------------------------------------------------
// Cached evaluators: the gate-library / ring / temperature workloads the
// extension experiments and the serve daemon share. Each compiles a bench
// and memoizes its measurement through `CompiledBench::recall`.
// ---------------------------------------------------------------------------

/// A gate transfer curve through the engine cache (`spice.vtc`
/// namespace).
///
/// # Errors
///
/// Propagates [`SpiceError`] from the solver.
pub fn cached_gate_vtc(
    pair: &CmosPair,
    kind: GateKind,
    v_dd: Volts,
    other: OtherInput,
    points: usize,
) -> Result<Vtc, SpiceError> {
    CellSpec::gate(kind, *pair)
        .compile(&Testbench::Vtc {
            v_dd,
            points,
            other,
        })
        .expect("gate cells always compile a VTC bench")
        .recall_transfer("topo.vtc", pair)
}

/// Worst-case gate static noise margin over the standard input vectors
/// (each single input switching with the other at its non-controlling
/// value, plus both switching together), via cached transfer curves.
///
/// # Errors
///
/// Propagates [`SpiceError`]; a gate with no restoring region reports as
/// a non-convergence.
pub fn cached_gate_snm(
    pair: &CmosPair,
    kind: GateKind,
    v_dd: Volts,
    points: usize,
) -> Result<f64, SpiceError> {
    let others = match kind {
        // NAND: non-controlling value is high.
        GateKind::Nand2 => [OtherInput::High, OtherInput::Common],
        // NOR: non-controlling value is low.
        GateKind::Nor2 => [OtherInput::Low, OtherInput::Common],
    };
    let mut worst = f64::INFINITY;
    for other in others {
        let vtc = cached_gate_vtc(pair, kind, v_dd, other, points)?;
        if let Some(nm) = crate::snm::noise_margins(&vtc) {
            worst = worst.min(nm.snm());
        }
    }
    if worst.is_finite() {
        Ok(worst)
    } else {
        Err(MEASUREMENT_FAILED)
    }
}

/// Static leakage current of a gate at one input vector (amps delivered
/// by the supply), through the engine cache (`spice.vtc` namespace — a
/// DC record).
///
/// # Errors
///
/// Propagates [`SpiceError`] from the solver.
pub fn cached_gate_leakage(
    pair: &CmosPair,
    kind: GateKind,
    v_dd: Volts,
    inputs: (bool, bool),
) -> Result<f64, SpiceError> {
    let bench = CellSpec::gate(kind, *pair)
        .compile(&Testbench::Leakage {
            v_dd,
            inputs: InputVector::Two(inputs.0, inputs.1),
        })
        .expect("gate cells always compile a leakage bench");
    let rec = bench.recall("topo.leak", &pair.model().cache_id(), || {
        Ok(vec![bench.run_static_current()?])
    })?;
    Ok(rec[0])
}

/// Ring-oscillator period and per-stage delay through the engine cache
/// (`spice.tran` namespace). The ring carries 0.1 fF of wiring
/// capacitance per stage and starts from alternating rails.
///
/// # Errors
///
/// Propagates [`SpiceError`]; no detectable oscillation reports as a
/// non-convergence.
///
/// # Panics
///
/// Panics if `stages` is even or less than 3.
pub fn cached_ring_oscillation(
    pair: &CmosPair,
    v_dd: Volts,
    stages: usize,
    steps: usize,
) -> Result<RingOscillation, SpiceError> {
    assert!(
        stages >= 3 && stages % 2 == 1,
        "ring needs an odd stage count >= 3"
    );
    let spec = CellSpec {
        cell: Cell::RingOsc(stages),
        pair: *pair,
        load: Load::Farads(0.1e-15),
    };
    let bench = spec
        .compile(&Testbench::Oscillation { v_dd, steps })
        .expect("odd rings always compile an oscillation bench");
    let rec = bench.recall("topo.ring", &pair.model().cache_id(), || {
        let osc = bench
            .measure_oscillation(&bench.run_transient()?)
            .ok_or(MEASUREMENT_FAILED)?;
        Ok(vec![osc.period.get(), osc.stage_delay.get()])
    })?;
    Ok(RingOscillation {
        period: Seconds::new(rec[0]),
        stage_delay: Seconds::new(rec[1]),
    })
}

/// Inverter transfer curve through the engine cache (`spice.vtc`
/// namespace) — the one record of the inverter VTC deck, shared by the
/// spice circuit backend and the temperature workload (the pair's
/// temperature enters the key via the device models).
///
/// # Errors
///
/// Propagates [`SpiceError`] from the solver.
pub fn cached_inverter_vtc(pair: &CmosPair, v_dd: Volts, points: usize) -> Result<Vtc, SpiceError> {
    CellSpec::inverter(*pair)
        .compile(&Testbench::Vtc {
            v_dd,
            points,
            other: OtherInput::Low,
        })
        .expect("inverters always compile a VTC bench")
        .recall_transfer("topo.vtc", pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_physics::device::DeviceParams;

    fn pair() -> CmosPair {
        CmosPair::balanced(DeviceParams::reference_90nm_nfet())
    }

    #[test]
    fn inverter_vtc_bench_matches_legacy_deck() {
        // The compiled bench is the hand-wired deck: a VDD rail, a
        // sweepable VIN and one inverter between them.
        let p = pair();
        let v = Volts::new(0.25);
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let vin = net.node("in");
        let vout = net.node("out");
        net.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(0.25));
        net.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(0.0));
        Inverter::new(p.at_supply(v)).wire(&mut net, "X1", vin, vout, vdd);
        let bench = CellSpec::inverter(p)
            .compile(&Testbench::Vtc {
                v_dd: v,
                points: 41,
                other: OtherInput::Low,
            })
            .unwrap();
        assert_eq!(bench.net, net, "compiled deck must equal the legacy deck");
        match bench.plan {
            MeasurePlan::DcTransfer { output, source, .. } => {
                assert_eq!(output, vout);
                assert_eq!(source, "VIN");
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let p = pair();
        let bench = |points| {
            CellSpec::gate(GateKind::Nand2, p)
                .compile(&Testbench::Vtc {
                    v_dd: Volts::new(0.25),
                    points,
                    other: OtherInput::Common,
                })
                .unwrap()
        };
        let a = bench(61);
        let b = bench(61);
        assert_eq!(a, b);
        assert_eq!(a.key("t", "analytic"), b.key("t", "analytic"));
        let c = bench(81);
        assert_ne!(
            a.key("t", "analytic"),
            c.key("t", "analytic"),
            "plan resolution must enter the key"
        );
        assert_ne!(
            a.key("t", "analytic"),
            a.key("t", "tcad"),
            "model identity must enter the key"
        );
    }

    #[test]
    fn unsupported_benches_are_typed_errors() {
        let p = pair();
        let err = CellSpec::inverter(p)
            .compile(&Testbench::Oscillation {
                v_dd: Volts::new(0.25),
                steps: 500,
            })
            .unwrap_err();
        assert_eq!(err.cell, "inverter");
        let err = CellSpec {
            cell: Cell::RingOsc(4),
            pair: p,
            load: Load::None,
        }
        .compile(&Testbench::Oscillation {
            v_dd: Volts::new(0.25),
            steps: 500,
        })
        .unwrap_err();
        assert!(err.to_string().contains("odd stage count"));
    }

    #[test]
    fn gate_leakage_shows_the_stack_effect() {
        // NAND with both inputs low leaks through a two-high off NFET
        // stack; a single off device (01) leaks more.
        let p = pair();
        let v = Volts::new(0.25);
        let both_off = cached_gate_leakage(&p, GateKind::Nand2, v, (false, false)).unwrap();
        let single = cached_gate_leakage(&p, GateKind::Nand2, v, (false, true)).unwrap();
        assert!(both_off > 0.0, "leakage must be positive: {both_off}");
        assert!(
            single > 1.5 * both_off,
            "stack effect: single-off {single} vs stack {both_off}"
        );
    }

    #[test]
    fn cached_gate_snm_matches_uncached() {
        let p = pair();
        let v = Volts::new(0.25);
        let cached = cached_gate_snm(&p, GateKind::Nor2, v, 61).unwrap();
        let direct = [OtherInput::Low, OtherInput::Common]
            .into_iter()
            .map(|other| {
                let vtc = Gate2::nor2(p).vtc(v, other, 61).unwrap();
                crate::snm::noise_margins(&vtc).unwrap().snm()
            })
            .fold(f64::INFINITY, f64::min);
        assert_eq!(cached, direct, "cached and direct SNM must agree exactly");
        let again = cached_gate_snm(&p, GateKind::Nor2, v, 61).unwrap();
        assert_eq!(cached, again);
    }

    #[test]
    fn ring_oscillates_in_subthreshold() {
        let p = pair();
        let osc = cached_ring_oscillation(&p, Volts::new(0.25), 5, 1500).unwrap();
        assert!(osc.period.get() > 0.0);
        // Stage delay within ~4x of the analytic FO1 delay (the ring
        // stage is lighter loaded than true FO1 plus wiring cap).
        let tp = analytic_fo1_delay(&p, Volts::new(0.25)).get();
        let ratio = osc.stage_delay.get() / tp;
        assert!((0.2..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "odd stage count")]
    fn rejects_even_rings() {
        let _ = cached_ring_oscillation(&pair(), Volts::new(0.25), 4, 100);
    }
}
