//! Traced runs: the per-layer ledger of one workload.
//!
//! A batch workload's traced run
//! 1. for half of `--seconds`, alternates untraced invocations of its
//!    `repro` command with layer replays: a worker process that makes the
//!    same top-level calls (design flows, then each experiment) under
//!    timing wrappers, so both sample the same host conditions;
//! 2. runs the command once more with `--trace` and `--manifest` and
//!    imports the program's own counters; and
//! 3. sets the untraced median against the set-up time plus the median
//!    replayed call times; what they leave over is
//!    `decomp.unattributed_ms`.
//!
//! `serve-mixed` runs phase A untraced and then again with the daemon's
//! access log, and decomposes a request's latency into the server-side
//! total and what is left for the wire. Every traced run also runs the
//! layer probes (in a worker process) and, for the serve layer, a short
//! access-logged serve session, so every run reports every metric of
//! [`PER_LAYER`].

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::time::{Duration, Instant};

use subvt_exp::tracefmt::{parse_json, Json};

use crate::batch::{self, Batch};
use crate::check;
use crate::counters::Counters;
use crate::procs::{self, Bins, WorkDir};
use crate::report::{num, Metric, Outcome};
use crate::serve::{self, Plan, Session};
use crate::stats::{median, Quantiles};
use crate::traffic::Traffic;
use crate::workload::Workload;

/// Every per-layer metric a traced run reports: name, unit, and whether
/// higher is better.
pub const PER_LAYER: [(&str, &str, bool); 64] = [
    ("physics.characterize.calls", "count", false),
    ("physics.characterize.us_p50", "us", false),
    ("physics.characterize.busy_ms", "ms", false),
    ("physics.drain_current.ns_p50", "ns", false),
    ("core.design_flows.ms", "ms", false),
    ("core.self_ms", "ms", false),
    ("core.bisect.steps", "count", false),
    ("tcad.calibrate.ms", "ms", false),
    ("tcad.characterize.us_p50", "us", false),
    ("tcad.equilibrium.ms", "ms", false),
    ("tcad.bias_point.ms_p50", "ms", false),
    ("tcad.id_vg.ms", "ms", false),
    ("tcad.gummel.bias_points", "count", false),
    ("tcad.poisson.solves", "count", false),
    ("tcad.gummel.iterations.mean", "count", false),
    ("tcad.poisson.iterations.mean", "count", false),
    ("spice.transient.ms_p50", "ms", false),
    ("spice.dc_op.us_p50", "us", false),
    ("spice.dc_op_warm.us_p50", "us", false),
    ("spice.lu.factor.us", "us", false),
    ("spice.lu.resolve.us", "us", false),
    ("spice.lu.factor", "count", false),
    ("spice.lu.resolve", "count", false),
    ("spice.newton.iterations.mean", "count", false),
    ("spice.tran.runs", "count", false),
    ("spice.tran.steps.mean", "count", false),
    ("spice.dc.solves", "count", false),
    ("spice.newton.warm_start", "count", false),
    ("circuits.fo1_spice.ms_p50", "ms", false),
    ("circuits.fo1_analytic.ms_p50", "ms", false),
    ("circuits.chain_energy_spice.ms_p50", "ms", false),
    ("circuits.vtc_spice.ms_p50", "ms", false),
    ("circuits.delay_variability_spice.ms", "ms", false),
    ("circuits.snm_variability_spice.ms", "ms", false),
    ("engine.cache.hit.us_p50", "us", false),
    ("engine.cache.miss.us_p50", "us", false),
    ("engine.executor.map64.us_p50", "us", false),
    ("engine.cache.open.ms", "ms", false),
    ("engine.cache.close.ms", "ms", false),
    ("engine.cache.hit_ratio", "ratio", true),
    ("exp.run.tables.ms", "ms", false),
    ("exp.run.device_figs.ms", "ms", false),
    ("exp.run.circuit_figs.ms", "ms", false),
    ("exp.run.compare_figs.ms", "ms", false),
    ("exp.render_csv.us", "us", false),
    ("serve.queue_us.p50", "us", false),
    ("serve.queue_us.p99", "us", false),
    ("serve.compute_us.p50", "us", false),
    ("serve.compute_us.p99", "us", false),
    ("serve.serialize_us.p50", "us", false),
    ("serve.hit_total_us.p50", "us", false),
    ("serve.dedup.hits", "count", true),
    ("serve.batch.merged", "count", true),
    ("serve.cached_fraction", "ratio", true),
    ("serve.query_compute.us_p50", "us", false),
    ("serve.wire_overhead.us_p50", "us", false),
    ("decomp.run_ms", "ms", false),
    ("decomp.setup_ms", "ms", false),
    ("decomp.attributed_ms", "ms", false),
    ("decomp.unattributed_ms", "ms", false),
    ("decomp.unattributed_share", "ratio", false),
    ("decomp.tracing_overhead_ms", "ms", false),
    ("invariants.violations", "count", false),
    ("loadgen.late_ms.p99", "ms", false),
];

/// Per-layer values gathered so far, by name.
type Ledger = BTreeMap<&'static str, f64>;

/// One traced run of `workload`.
///
/// # Errors
///
/// When preparation, a worker process or the daemon fails; failed
/// operations are counted in the outcome instead.
pub fn run(
    bins: &Bins,
    work: &WorkDir,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::new(workload, true);
    let mut ledger = Ledger::new();
    let counters = match workload {
        Workload::ServeMixed => serve_ledger(bins, work, seed, seconds, &mut ledger, &mut out)?,
        _ => batch_ledger(bins, work, workload, seed, seconds, &mut ledger, &mut out)?,
    };

    counter_rows(&counters, &mut ledger);
    let violations = counters.violations();
    ledger.insert("invariants.violations", violations.len() as f64);
    for v in &violations {
        eprintln!("invariant violated ({}): {v}", workload.name());
    }
    out.notes.push((
        "invariant_violations".to_owned(),
        format!(
            "[{}]",
            violations
                .iter()
                .map(|v| subvt_serve::proto::json_str(v))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));

    let dir = work.fresh("probe")?;
    let ran = procs::run(
        procs::command(&bins.worker, &dir).arg("probe"),
        &dir.join("stderr.txt"),
    )?;
    work.retire(&dir);
    let probes = parse_json(String::from_utf8_lossy(&ran.stdout).trim())?;
    let Json::Obj(members) = probes else {
        return Err("probe worker printed no JSON object".to_owned());
    };
    for (name, value) in members {
        if let (Some(&(key, _, _)), Some(v)) = (
            PER_LAYER.iter().find(|(n, _, _)| *n == name),
            value.as_f64(),
        ) {
            ledger.insert(key, v);
        }
    }

    for (name, unit, _) in PER_LAYER {
        let value = ledger
            .get(name)
            .copied()
            .ok_or_else(|| format!("traced run produced no `{name}`"))?;
        out.push(Metric::new(name, unit, value));
    }
    Ok(out)
}

/// Layer counts from the program's own counters.
fn counter_rows(c: &Counters, ledger: &mut Ledger) {
    for name in [
        "tcad.gummel.bias_points",
        "tcad.poisson.solves",
        "spice.lu.factor",
        "spice.lu.resolve",
        "spice.tran.runs",
        "spice.dc.solves",
        "spice.newton.warm_start",
    ] {
        ledger.insert(name, c.get(name) as f64);
    }
    for (metric, hist) in [
        ("tcad.gummel.iterations.mean", "tcad.gummel.iterations"),
        ("tcad.poisson.iterations.mean", "tcad.poisson.iterations"),
        ("spice.newton.iterations.mean", "spice.newton.iterations"),
        ("spice.tran.steps.mean", "spice.tran.steps"),
    ] {
        ledger.insert(metric, c.mean(hist));
    }
    ledger.insert("engine.cache.hit_ratio", c.cache_hit_ratio());
}

/// The serve layer from an access-logged session.
fn serve_rows(s: &Session, ledger: &mut Ledger) {
    let ok: Vec<_> = s.access.iter().filter(|r| r.outcome == "ok").collect();
    let phase = |name: &str, filter: &dyn Fn(Option<&str>) -> bool| {
        Quantiles::new(
            ok.iter()
                .filter(|r| filter(r.cached.as_deref()))
                .filter_map(|r| r.phases.iter().find(|(p, _)| p == name))
                .map(|(_, us)| *us as f64)
                .collect(),
        )
    };
    let any = |_: Option<&str>| true;
    let computed = |c: Option<&str>| c == Some("computed");
    let queue = phase("queue_us", &any);
    let compute = phase("compute_us", &computed);
    ledger.insert("serve.queue_us.p50", queue.at(0.5));
    ledger.insert("serve.queue_us.p99", queue.at(0.99));
    ledger.insert("serve.compute_us.p50", compute.at(0.5));
    ledger.insert("serve.compute_us.p99", compute.at(0.99));
    ledger.insert(
        "serve.serialize_us.p50",
        phase("serialize_us", &any).at(0.5),
    );

    let totals: BTreeMap<&str, (u64, Option<&str>)> = ok
        .iter()
        .map(|r| (r.trace_id.as_str(), (r.total_us, r.cached.as_deref())))
        .collect();
    let hit_totals: Vec<f64> = totals
        .values()
        .filter(|(_, c)| *c == Some("hit"))
        .map(|(us, _)| *us as f64)
        .collect();
    ledger.insert("serve.hit_total_us.p50", median(&hit_totals));
    let wire: Vec<f64> =
        s.a.iter()
            .enumerate()
            .filter_map(|(j, (_, sample))| {
                let (total, cached) = totals.get(format!("a{j}").as_str())?;
                (*cached == Some("hit")).then_some(sample.service_ms * 1e3 - *total as f64)
            })
            .collect();
    ledger.insert("serve.wire_overhead.us_p50", median(&wire));

    let c = &s.counters;
    let hits = c.get("serve.dedup.hits");
    let shared = hits + c.get("serve.dedup.coalesced");
    ledger.insert("serve.dedup.hits", hits as f64);
    ledger.insert("serve.batch.merged", c.get("serve.batch.merged") as f64);
    ledger.insert(
        "serve.cached_fraction",
        shared as f64 / (shared + c.get("serve.computed")).max(1) as f64,
    );
    ledger.insert("serve.query_compute.us_p50", median(&s.compute_us));
    ledger.insert(
        "loadgen.late_ms.p99",
        Quantiles::new(s.a.iter().map(|(_, x)| x.late_ms).collect()).at(0.99),
    );
}

/// A short access-logged serve session; the serve layer's rows for a
/// batch workload's ledger.
fn serve_probe(
    bins: &Bins,
    work: &WorkDir,
    seed: u64,
    ledger: &mut Ledger,
    out: &mut Outcome,
) -> Result<(), String> {
    let prep = serve::prepare(bins, work)?;
    let plan = Plan {
        startups: 1,
        rate: 400.0,
        phase_a: Duration::from_secs(3),
        phase_b: 0,
        access_log: true,
        fresh_checks: 100,
    };
    let s = serve::session(bins, work, &prep, &mut Traffic::new(seed), plan, out)?;
    serve_rows(&s, ledger);
    Ok(())
}

/// Fewest untraced-invocation/replay pairs a batch ledger takes.
const MIN_PAIRS: usize = 3;

/// One layer replay's call times, ms.
struct Replay {
    open: f64,
    design: f64,
    experiments: f64,
    close: f64,
}

impl Replay {
    fn total(&self) -> f64 {
        self.open + self.design + self.experiments + self.close
    }
}

/// Runs the layer-replay worker once and checks its rendered output
/// against the reference.
fn replay_once(
    bins: &Bins,
    work: &WorkDir,
    workload: Workload,
    seed: u64,
    reference: &[u8],
) -> Result<Replay, String> {
    let dir = work.fresh("replay")?;
    let ran = procs::run(
        procs::command(&bins.worker, &dir).args([
            "replay",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ]),
        &dir.join("stderr.txt"),
    );
    let replayed = std::fs::read(dir.join("replay.csv")).unwrap_or_default();
    work.retire(&dir);
    let timings = parse_json(String::from_utf8_lossy(&ran?.stdout).trim())?;
    check::identical("layer replay vs --jobs 1 reference", reference, &replayed)?;
    let field = |k: &str| {
        timings
            .get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("replay printed no `{k}`"))
    };
    let experiments = match timings.get("experiments_ms") {
        Some(Json::Obj(m)) => m.iter().filter_map(|(_, v)| v.as_f64()).sum(),
        _ => return Err("replay printed no `experiments_ms`".to_owned()),
    };
    Ok(Replay {
        open: field("open_ms")?,
        design: field("design_ms")?,
        experiments,
        close: field("close_ms")?,
    })
}

/// The batch ledger: untraced invocations alternating with layer
/// replays (so both sample the same host conditions), then one traced
/// invocation for the program's counters, then the serve probe.
fn batch_ledger(
    bins: &Bins,
    work: &WorkDir,
    workload: Workload,
    seed: u64,
    seconds: f64,
    ledger: &mut Ledger,
    out: &mut Outcome,
) -> Result<Counters, String> {
    let batch = Batch::prepare(bins, work, batch::spec_of(workload)?, seed)?;
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let started = Instant::now();
    let (mut setup_s, mut run_ms, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    while run_ms.len() < MIN_PAIRS || started.elapsed() < budget {
        setup_s.extend(batch.setup_samples()?.iter().map(|s| s.raw));
        match batch.invoke(&[], false) {
            Ok(op) => {
                run_ms.push(op.ran.elapsed.as_secs_f64() * 1e3);
                out.record(Ok(()));
            }
            Err(e) => out.record(Err(e)),
        }
        match replay_once(bins, work, workload, seed, &batch.reference) {
            Ok(r) => {
                replays.push(r);
                out.record(Ok(()));
            }
            Err(e) => out.record(Err(format!("layer replay: {e}"))),
        }
    }

    let extra: Vec<OsString> = ["--trace", "trace.jsonl", "--manifest", "manifest.json"]
        .map(OsString::from)
        .to_vec();
    let op = batch
        .invoke(&extra, true)
        .map_err(|e| format!("traced invocation: {e}"))?;
    out.record(Ok(()));
    let manifest = std::fs::read_to_string(op.dir.join("manifest.json"))
        .map_err(|e| format!("cannot read the manifest: {e}"))
        .and_then(|t| parse_json(t.trim()));
    work.retire(&op.dir);
    let counters = Counters::from_manifest(&manifest?);
    let traced_ms = op.ran.elapsed.as_secs_f64() * 1e3;

    let part = |f: fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let run = median(&run_ms);
    let setup_ms = median(&setup_s) * 1e3;
    let attributed = setup_ms + part(Replay::total);
    decomposition(ledger, run, setup_ms, attributed, traced_ms - run);
    eprintln!(
        "decomposition ({}, seed {seed}, {} pairs): median invocation {run:.2} (untraced) = setup \
         {setup_ms:.2} + cache open {:.2} + design flows {:.2} + experiments {:.2} + cache \
         close {:.2} + unattributed {:.2} ms; traced run {traced_ms:.2} ms",
        workload.name(),
        run_ms.len(),
        part(|r| r.open),
        part(|r| r.design),
        part(|r| r.experiments),
        part(|r| r.close),
        run - attributed,
    );
    out.notes.push((
        "replay_ms".to_owned(),
        format!(
            "{{\"pairs\":{},\"open\":{},\"design\":{},\"experiments\":{},\"close\":{}}}",
            replays.len(),
            num(part(|r| r.open)),
            num(part(|r| r.design)),
            num(part(|r| r.experiments)),
            num(part(|r| r.close)),
        ),
    ));
    serve_probe(bins, work, seed, ledger, out)?;
    Ok(counters)
}

fn serve_ledger(
    bins: &Bins,
    work: &WorkDir,
    seed: u64,
    seconds: f64,
    ledger: &mut Ledger,
    out: &mut Outcome,
) -> Result<Counters, String> {
    let prep = serve::prepare(bins, work)?;
    let mut traffic = Traffic::new(seed);
    let third = Duration::from_secs_f64(seconds / 3.0);
    let untraced = serve::session(
        bins,
        work,
        &prep,
        &mut traffic,
        Plan {
            startups: 3,
            rate: 400.0,
            phase_a: third,
            phase_b: 0,
            access_log: false,
            fresh_checks: 0,
        },
        out,
    )?;
    let traced = serve::session(
        bins,
        work,
        &prep,
        &mut traffic,
        Plan {
            startups: 1,
            rate: 400.0,
            phase_a: third,
            phase_b: 0,
            access_log: true,
            fresh_checks: 200,
        },
        out,
    )?;
    serve_rows(&traced, ledger);
    let run_ms = untraced.raw_latency_p50();
    let server_ms = median(
        &traced
            .access
            .iter()
            .filter(|r| r.outcome == "ok")
            .map(|r| r.total_us as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let setup_ms = median(&untraced.setup_s) * 1e3;
    decomposition(
        ledger,
        run_ms,
        setup_ms,
        server_ms,
        traced.raw_latency_p50() - run_ms,
    );
    eprintln!(
        "decomposition (serve-mixed, seed {seed}): median latency {run_ms:.3} (untraced) = \
         server-side total {server_ms:.3} + unattributed (wire, client) {:.3} ms; \
         daemon set-up {setup_ms:.1} ms",
        run_ms - server_ms
    );
    Ok(traced.counters)
}

fn decomposition(ledger: &mut Ledger, run_ms: f64, setup_ms: f64, attributed: f64, overhead: f64) {
    ledger.insert("decomp.run_ms", run_ms);
    ledger.insert("decomp.setup_ms", setup_ms);
    ledger.insert("decomp.attributed_ms", attributed);
    ledger.insert("decomp.unattributed_ms", run_ms - attributed);
    ledger.insert("decomp.unattributed_share", (run_ms - attributed) / run_ms);
    ledger.insert("decomp.tracing_overhead_ms", overhead);
}
