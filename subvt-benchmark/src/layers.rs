//! Per-layer measurements taken from outside the program: timed calls
//! into each crate's public functions, and the layer-replay of a batch
//! workload's top-level calls.
//!
//! Both run in worker processes of their own (`subvt-benchmark probe`,
//! `subvt-benchmark replay`): backend selection is first-wins per
//! process, and a probe must not inherit a calibration or a warm cache
//! from earlier work.

use std::fmt;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use subvt_circuits::chain::InverterChain;
use subvt_circuits::topology::{Cell, CellSpec, Load, Stimulus, Testbench};
use subvt_circuits::{CircuitBackendKind, CmosPair};
use subvt_core::strategy::ScalingStrategy;
use subvt_core::{SubVthStrategy, SuperVthStrategy};
use subvt_engine::rng::SplitMix64;
use subvt_engine::{Blob, Cache};
use subvt_exp::codec::DesignSet;
use subvt_exp::{CacheSession, StudyContext};
use subvt_model::{DeviceModel, ModelError};
use subvt_physics::device::{DeviceCharacteristics, DeviceParams};
use subvt_physics::iv::MosModel;
use subvt_serve::proto::json_str;
use subvt_spice::linalg::{DenseMatrix, LuFactors};
use subvt_spice::mna::{dc_operating_point, dc_operating_point_from};
use subvt_spice::netlist::Element;
use subvt_tcad::model::TCAD_COARSE;
use subvt_tcad::{extract, DeviceSimulator, MeshDensity, Mosfet2d};
use subvt_units::Volts;

use crate::report::num;
use crate::stats::median;
use crate::workload::Workload;

/// A [`DeviceModel`] that times every characterization of the model it
/// wraps. It reports the wrapped model's `cache_id`, so design-cache
/// entries it fills are the ones the program itself reads.
pub struct TimedModel {
    inner: &'static dyn DeviceModel,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    samples_ns: Mutex<Vec<u64>>,
}

impl TimedModel {
    /// Wraps `inner` for the rest of the process.
    pub fn leak(inner: &'static dyn DeviceModel) -> &'static TimedModel {
        Box::leak(Box::new(TimedModel {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            samples_ns: Mutex::new(Vec::new()),
        }))
    }

    /// Characterizations so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed characterization wall time, ms (across threads).
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Median characterization time of calls `skip..`, µs.
    pub fn us_p50(&self, skip: usize) -> f64 {
        let samples = self.samples_ns.lock().expect("timing samples lock");
        let us: Vec<f64> = samples
            .iter()
            .skip(skip)
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        median(&us)
    }
}

impl fmt::Debug for TimedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimedModel({:?})", self.inner)
    }
}

impl DeviceModel for TimedModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_id(&self) -> String {
        self.inner.cache_id()
    }

    fn characterize(&self, params: &DeviceParams) -> Result<DeviceCharacteristics, ModelError> {
        let started = Instant::now();
        let out = self.inner.characterize(params);
        let ns = started.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.samples_ns
            .lock()
            .expect("timing samples lock")
            .push(ns);
        out
    }
}

/// One probe result: name, unit, value.
pub type Row = (&'static str, &'static str, f64);

/// Median wall time of `reps` calls of `f`, scaled (1e3: ms, 1e6: µs).
fn time_median<T>(
    reps: usize,
    scale: f64,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<f64, String> {
    let mut v = Vec::with_capacity(reps);
    for i in 0..reps {
        let started = Instant::now();
        black_box(f(i)?);
        v.push(started.elapsed().as_secs_f64() * scale);
    }
    Ok(median(&v))
}

/// Median per-call µs of `f` timed in `batches` batches of `per` calls.
fn time_per_call(batches: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per {
                f();
            }
            started.elapsed().as_secs_f64() * 1e6 / per as f64
        })
        .collect();
    median(&v)
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn hist_sum(name: &str) -> f64 {
    subvt_engine::trace::global()
        .snapshot()
        .hists
        .get(name)
        .map_or(0.0, |h| h.sum)
}

/// Runs every layer probe, in a fixed order, with scratch files in
/// `dir`.
///
/// # Errors
///
/// When a probed call fails.
pub fn probes(dir: &Path) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let payload_len = physics_and_core(&mut rows)?;
    engine(&mut rows, dir, payload_len)?;
    tcad(&mut rows)?;
    spice(&mut rows)?;
    circuits(&mut rows)?;
    exp(&mut rows)?;
    Ok(rows)
}

/// `physics` and `core`: both design flows, cold and single-threaded,
/// through a timed analytic model; then the drain-current kernel over a
/// 41×41 bias grid. Returns the encoded length of one design set.
fn physics_and_core(rows: &mut Vec<Row>) -> Result<usize, String> {
    let timed = TimedModel::leak(subvt_model::analytic());
    let steps_before = hist_sum("design.bisect.steps");
    let started = Instant::now();
    SuperVthStrategy::default()
        .design_all_with(timed)
        .map_err(|e| format!("super-Vth design flow: {e}"))?;
    let subvth = SubVthStrategy::default()
        .design_all_with(timed)
        .map_err(|e| format!("sub-Vth design flow: {e}"))?;
    let design_ms = ms_since(started);
    rows.push(("physics.characterize.calls", "count", timed.calls() as f64));
    rows.push(("physics.characterize.us_p50", "us", timed.us_p50(0)));
    rows.push(("physics.characterize.busy_ms", "ms", timed.busy_ms()));
    rows.push(("core.design_flows.ms", "ms", design_ms));
    rows.push(("core.self_ms", "ms", design_ms - timed.busy_ms()));
    rows.push((
        "core.bisect.steps",
        "count",
        hist_sum("design.bisect.steps") - steps_before,
    ));

    let p = DeviceParams::reference_90nm_nfet();
    let model = MosModel::from_device(&p, &p.characterize());
    let grid: Vec<f64> = (0..41).map(|i| 1.2 * f64::from(i) / 40.0).collect();
    let per_grid_us = time_median(30, 1e6, |_| {
        for &vg in &grid {
            for &vd in &grid {
                black_box(model.drain_current(Volts::new(vg), Volts::new(vd)));
            }
        }
        Ok(())
    })?;
    rows.push((
        "physics.drain_current.ns_p50",
        "ns",
        per_grid_us * 1e3 / (grid.len() * grid.len()) as f64,
    ));
    Ok(DesignSet(subvth).encode().len())
}

/// `engine`: cache hit and miss on a private cache with a design-sized
/// payload, a 64-job executor map, and a cache file of 400 such entries
/// closed and reopened through `CacheSession`.
fn engine(rows: &mut Vec<Row>, dir: &Path, payload_len: usize) -> Result<(), String> {
    let payload: Vec<f64> = (0..payload_len).map(|i| i as f64 * 0.5).collect();
    let cache = Cache::new();
    let miss = time_median(2000, 1e6, |i| {
        Ok(cache.get_or_compute("bench.probe", i as u64, || payload.clone()))
    })?;
    let hit = time_median(2000, 1e6, |i| {
        Ok(cache.get_or_compute("bench.probe", i as u64, || payload.clone()))
    })?;
    rows.push(("engine.cache.hit.us_p50", "us", hit));
    rows.push(("engine.cache.miss.us_p50", "us", miss));
    let map = time_median(200, 1e6, |_| {
        Ok(subvt_engine::global().map((0..64u64).collect(), |i| black_box(i * 2)))
    })?;
    rows.push(("engine.executor.map64.us_p50", "us", map));

    let path = dir.join("probe-cache.jsonl");
    let session = CacheSession::open(&path).map_err(|e| format!("cache open: {e}"))?;
    for key in 0..400u64 {
        subvt_engine::global_cache().get_or_compute("bench.file", key, || payload.clone());
    }
    let started = Instant::now();
    session.close().map_err(|e| format!("cache close: {e}"))?;
    let close_ms = ms_since(started);
    let started = Instant::now();
    let session = CacheSession::open(&path).map_err(|e| format!("cache reopen: {e}"))?;
    let open_ms = ms_since(started);
    session.close().map_err(|e| format!("cache close: {e}"))?;
    rows.push(("engine.cache.open.ms", "ms", open_ms));
    rows.push(("engine.cache.close.ms", "ms", close_ms));
    Ok(())
}

/// `tcad`: the anchored backend's first call (the calibration), later
/// anchored calls, the equilibrium solve, bias points along `V_g`, and a
/// full `I_d–V_g` sweep of the reference device on the coarse mesh.
fn tcad(rows: &mut Vec<Row>) -> Result<(), String> {
    let p = DeviceParams::reference_90nm_nfet();
    let timed = TimedModel::leak(&TCAD_COARSE);
    let started = Instant::now();
    timed.characterize(&p).map_err(|e| e.to_string())?;
    rows.push(("tcad.calibrate.ms", "ms", ms_since(started)));
    for _ in 0..200 {
        timed.characterize(&p).map_err(|e| e.to_string())?;
    }
    rows.push(("tcad.characterize.us_p50", "us", timed.us_p50(1)));

    let started = Instant::now();
    let mut sim = DeviceSimulator::new(Mosfet2d::build(&p, MeshDensity::Coarse))
        .map_err(|e| e.to_string())?;
    rows.push(("tcad.equilibrium.ms", "ms", ms_since(started)));
    let bias = time_median(12, 1e3, |k| {
        sim.set_bias(0.1 * (k + 1) as f64, 0.05)
            .map_err(|e| e.to_string())
    })?;
    rows.push(("tcad.bias_point.ms_p50", "ms", bias));
    let mut sim = DeviceSimulator::new(Mosfet2d::build(&p, MeshDensity::Coarse))
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    extract::id_vg(&mut sim, 0.05, p.v_dd.as_volts(), 0.05).map_err(|e| e.to_string())?;
    rows.push(("tcad.id_vg.ms", "ms", ms_since(started)));
    Ok(())
}

/// `spice`: the FO1 deck compiled from the topology layer — transient,
/// cold and warm DC operating points — and dense LU factor/resolve at
/// that deck's MNA size.
fn spice(rows: &mut Vec<Row>) -> Result<(), String> {
    let pair = CmosPair::balanced(DeviceParams::reference_90nm_nfet());
    let bench = CellSpec {
        cell: Cell::InverterChain(3),
        pair,
        load: Load::Fanout(1.0),
    }
    .compile(&Testbench::Transient {
        v_dd: Volts::new(0.3),
        stimulus: Stimulus::DelayPulse,
        steps: 1200,
    })
    .map_err(|e| e.to_string())?;
    let tran = time_median(7, 1e3, |_| bench.run_transient().map_err(|e| e.to_string()))?;
    rows.push(("spice.transient.ms_p50", "ms", tran));
    let cold = time_median(51, 1e6, |_| {
        dc_operating_point(&bench.net).map_err(|e| e.to_string())
    })?;
    let sol = dc_operating_point(&bench.net).map_err(|e| e.to_string())?;
    let warm = time_median(51, 1e6, |_| {
        dc_operating_point_from(&bench.net, &sol).map_err(|e| e.to_string())
    })?;
    rows.push(("spice.dc_op.us_p50", "us", cold));
    rows.push(("spice.dc_op_warm.us_p50", "us", warm));

    let sources = bench
        .net
        .elements()
        .iter()
        .filter(|e| matches!(e.element, Element::VSource { .. }))
        .count();
    let n = bench.net.node_count() - 1 + sources;
    let mut rng = SplitMix64::new(0x5eed);
    let mut a = DenseMatrix::zeros(n);
    for r in 0..n {
        for c in 0..n {
            let v = rng.next_f64() - 0.5;
            a.set(r, c, if r == c { v + n as f64 } else { v });
        }
    }
    let b: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let mut lu = LuFactors::new();
    let factor = time_per_call(15, 200, || {
        lu.factor(black_box(&a))
            .expect("diagonally dominant matrix");
    });
    let resolve = time_per_call(15, 200, || {
        black_box(lu.solve(&mut b.clone()));
    });
    rows.push(("spice.lu.factor.us", "us", factor));
    rows.push(("spice.lu.resolve.us", "us", resolve));
    Ok(())
}

/// `circuits`: both circuit backends called directly at supplies no
/// earlier call used, so the engine's result caches always miss.
fn circuits(rows: &mut Vec<Row>) -> Result<(), String> {
    let pair = CmosPair::balanced(DeviceParams::reference_90nm_nfet());
    let chain = InverterChain::paper_chain(pair);
    let spice = CircuitBackendKind::Spice.instance();
    let analytic = CircuitBackendKind::Analytic.instance();
    let mut k = 0u32;
    let mut fresh = || {
        k += 1;
        Volts::new(0.3 + 1e-4 * f64::from(k))
    };
    let err = |e: subvt_circuits::backend::CircuitError| e.to_string();
    rows.push((
        "circuits.fo1_spice.ms_p50",
        "ms",
        time_median(5, 1e3, |_| spice.fo1_delay(&pair, fresh()).map_err(err))?,
    ));
    rows.push((
        "circuits.fo1_analytic.ms_p50",
        "ms",
        time_median(5, 1e3, |_| analytic.fo1_delay(&pair, fresh()).map_err(err))?,
    ));
    rows.push((
        "circuits.chain_energy_spice.ms_p50",
        "ms",
        time_median(3, 1e3, |_| spice.chain_energy(&chain, fresh()).map_err(err))?,
    ));
    rows.push((
        "circuits.vtc_spice.ms_p50",
        "ms",
        time_median(5, 1e3, |_| spice.vtc(&pair, fresh(), 161).map_err(err))?,
    ));
    rows.push((
        "circuits.delay_variability_spice.ms",
        "ms",
        time_median(1, 1e3, |_| {
            spice.delay_variability(&pair, fresh(), 64, 7).map_err(err)
        })?,
    ));
    rows.push((
        "circuits.snm_variability_spice.ms",
        "ms",
        time_median(1, 1e3, |_| {
            spice.snm_variability(&pair, fresh(), 64, 7).map_err(err)
        })?,
    ));
    Ok(())
}

/// `exp`: each figure group through `subvt_exp::run` on a warm design
/// context, and CSV rendering of every paper table.
fn exp(rows: &mut Vec<Row>) -> Result<(), String> {
    StudyContext::compute().map_err(|e| e.to_string())?;
    let groups: [(&str, &[&str]); 4] = [
        ("exp.run.tables.ms", &["table1", "table2", "table3"]),
        (
            "exp.run.device_figs.ms",
            &["fig2", "fig3", "fig7", "fig8", "fig9"],
        ),
        ("exp.run.circuit_figs.ms", &["fig4", "fig5", "fig6"]),
        ("exp.run.compare_figs.ms", &["fig10", "fig11", "fig12"]),
    ];
    for (name, ids) in groups {
        let ms = time_median(3, 1e3, |_| {
            ids.iter()
                .map(|id| subvt_exp::run(id).ok_or_else(|| format!("unknown experiment {id}")))
                .collect::<Result<Vec<_>, _>>()
        })?;
        rows.push((name, "ms", ms));
    }
    let tables: Vec<subvt_exp::Table> = subvt_exp::ALL_EXPERIMENTS
        .iter()
        .filter_map(|id| subvt_exp::run(id))
        .collect();
    let render = time_median(20, 1e6, |_| {
        Ok(tables
            .iter()
            .map(subvt_exp::Table::to_csv)
            .collect::<Vec<_>>())
    })?;
    rows.push(("exp.render_csv.us", "us", render));
    Ok(())
}

/// Renders probe rows as one JSON object `{name: value}`.
pub fn rows_json(rows: &[Row]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, _, v)| format!("{}:{}", json_str(name), num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The layer replay of a batch workload, in this (worker) process:
/// selects the workload's backends, opens its fresh cache file if it
/// has one, runs both design flows through a timed model, runs every
/// experiment in the seed's order rendering CSV exactly as `repro
/// --csv` prints it, and closes the cache. Writes the rendered output
/// to `dir/replay.csv` and returns the timings as JSON.
///
/// # Errors
///
/// When the workload is not a batch workload or a call fails.
pub fn replay(workload: Workload, seed: u64, dir: &Path) -> Result<String, String> {
    let spec = workload
        .batch()
        .ok_or_else(|| format!("{} has no replay", workload.name()))?;
    subvt_exp::backend::configure(spec.backend);
    subvt_exp::backend::configure_circuit(spec.circuit);
    let started = Instant::now();
    let session = if spec.fresh_cache {
        Some(CacheSession::open(&dir.join("cache.jsonl")).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let open_ms = ms_since(started);

    let timed = TimedModel::leak(subvt_exp::backend::model());
    let started = Instant::now();
    StudyContext::compute_with(timed).map_err(|e| e.to_string())?;
    let design_ms = ms_since(started);

    let mut rendered = String::new();
    let mut experiments = Vec::new();
    for id in spec.ordered_ids(seed) {
        let started = Instant::now();
        let table = subvt_exp::run(id).ok_or_else(|| format!("unknown experiment {id}"))?;
        rendered.push_str(&table.to_csv());
        experiments.push(format!("{}:{}", json_str(id), num(ms_since(started))));
    }

    let started = Instant::now();
    if let Some(session) = session {
        session.close().map_err(|e| e.to_string())?;
    }
    let close_ms = ms_since(started);
    std::fs::write(dir.join("replay.csv"), &rendered).map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\"open_ms\":{},\"design_ms\":{},\"experiments_ms\":{{{}}},\"close_ms\":{},\
         \"characterize_calls\":{},\"characterize_busy_ms\":{},\"characterize_us_p50\":{}}}",
        num(open_ms),
        num(design_ms),
        experiments.join(","),
        num(close_ms),
        timed.calls(),
        num(timed.busy_ms()),
        num(timed.us_p50(0)),
    ))
}
