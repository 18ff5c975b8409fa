//! Command-line driver for the paper-reproduction experiments.
//!
//! Usage:
//!
//! ```text
//! repro all                 # run everything in paper order
//! repro table2 fig2 fig12   # run a subset
//! repro --csv fig6          # CSV output instead of aligned text
//! repro --backend tcad fig2 # evaluate devices through the 2-D TCAD solver
//! repro --circuit-backend spice fig4
//!                           # measure circuit metrics off full netlists
//! repro --jobs 8 all        # size the engine pool explicitly
//! repro --trace t.jsonl all # dump spans + metrics as JSON lines
//! repro --trace t.json --trace-format chrome fig2
//!                           # Chrome trace-event JSON (load in Perfetto)
//! repro --manifest m.json all
//!                           # per-run summary: timings, cache, solvers
//! repro --circuit-backend spice --bench BENCH_spice.json montecarlo
//!                           # spice-backed Monte Carlo + latency artifact
//! repro --cache c.jsonl all # persist the result cache across runs
//! repro --keep-going all    # isolate failures; report them, keep sweeping
//! repro trace-report t.jsonl
//!                           # render a saved trace as a span tree
//! repro trace-report m.json # (manifest files are sniffed and summarised)
//! repro --list              # list experiment ids
//! ```

use std::process::ExitCode;

use subvt_engine::json::{parse_json, Json};
use subvt_engine::trace::TraceSnapshot;
use subvt_exp::{tracefmt, FigureFailure, Study, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS};
use subvt_units::Temperature;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace-report") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: repro trace-report <trace-file>");
            return ExitCode::FAILURE;
        };
        return trace_report(path);
    }
    if args.first().map(String::as_str) == Some("trace-stitch") {
        return trace_stitch(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fleet") {
        return fleet_main(&args[1..]);
    }
    // Hidden: one shard of a fleet, spawned by `repro fleet`.
    if args.iter().any(|a| a == "--fleet-worker") {
        return fleet_worker_main(&args);
    }

    let mut csv = false;
    let mut keep_going = false;
    let mut trace_path: Option<String> = None;
    let mut trace_chrome = false;
    let mut manifest_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut cache_path: Option<String> = None;
    let mut study = StudyArgs::default();
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--keep-going" => keep_going = true,
            "--backend" | "--circuit-backend" | "--temp" => {
                if let Err(e) = study.apply(arg, iter.next()) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            "--jobs" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if !subvt_engine::configure_jobs(n) {
                    eprintln!("--jobs must come before any work is scheduled");
                    return ExitCode::FAILURE;
                }
            }
            "--trace" => {
                let Some(path) = iter.next() else {
                    eprintln!("--trace needs a file path");
                    return ExitCode::FAILURE;
                };
                trace_path = Some(path.clone());
            }
            "--trace-format" => match iter.next().map(String::as_str) {
                Some("jsonl") => trace_chrome = false,
                Some("chrome") => trace_chrome = true,
                _ => {
                    eprintln!("--trace-format needs one of: jsonl, chrome");
                    return ExitCode::FAILURE;
                }
            },
            "--manifest" => {
                let Some(path) = iter.next() else {
                    eprintln!("--manifest needs a file path");
                    return ExitCode::FAILURE;
                };
                manifest_path = Some(path.clone());
            }
            "--bench" => {
                let Some(path) = iter.next() else {
                    eprintln!("--bench needs a file path");
                    return ExitCode::FAILURE;
                };
                bench_path = Some(path.clone());
            }
            "--cache" => {
                let Some(path) = iter.next() else {
                    eprintln!("--cache needs a file path");
                    return ExitCode::FAILURE;
                };
                cache_path = Some(path.clone());
            }
            "--list" => {
                for id in ALL_EXPERIMENTS.iter().chain(&EXTENSION_EXPERIMENTS) {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => expand_ids(&mut ids, other),
        }
    }
    if ids.is_empty() {
        print_help();
        return ExitCode::FAILURE;
    }
    let study = study.study;

    // Leased segment + load, shared with `subvt-serve`: every run
    // appends to its own segment under `<cache>.d/`, so concurrent runs
    // against the same file all persist, and the close compacts under
    // the compaction lease.
    let mut cache_session: Option<subvt_exp::CacheSession> = None;
    if let Some(path) = &cache_path {
        match subvt_exp::CacheSession::open(path.as_ref()) {
            Ok(session) => cache_session = Some(session),
            Err(e) => {
                eprintln!("cannot open cache file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Plain mode runs the ids before the first unknown one and then
    // stops; `--keep-going` reports the unknown ids with the failures.
    let run = match ids.iter().position(|id| !subvt_exp::is_experiment(id)) {
        Some(at) if !keep_going => &ids[..at],
        _ => &ids[..],
    };
    let mut failures: Vec<FigureFailure> = Vec::new();
    for outcome in study.run_ids(run) {
        match outcome {
            Ok(table) => print!("{}", table.render(csv)),
            Err(failure) if keep_going => {
                eprintln!("FAILED {}: {}", failure.id, failure.message);
                failures.push(failure);
            }
            Err(failure) => panic!("{failure}"),
        }
    }
    if let Some(id) = ids.get(run.len()) {
        eprintln!("unknown experiment `{id}` (try --list)");
        return ExitCode::FAILURE;
    }

    if let Some(session) = cache_session.take() {
        if let Err(e) = session.close() {
            let path = cache_path.as_deref().unwrap_or("?");
            eprintln!("cannot write cache file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &trace_path {
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(path)?;
            let tracer = subvt_engine::trace::global();
            if trace_chrome {
                tracer.write_chrome(&mut file)
            } else {
                tracer.write_jsonl(&mut file)
            }
        };
        if let Err(e) = write() {
            eprintln!("cannot write trace file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &bench_path {
        // Snapshot (not drain): the manifest writer below still needs
        // the counters this artifact summarises.
        let snap = subvt_engine::trace::global().snapshot();
        match subvt_exp::report::render_spice_bench(&snap) {
            Ok(artifact) => {
                if let Err(e) = std::fs::write(path, artifact + "\n") {
                    eprintln!("cannot write bench file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(msg) => {
                eprintln!("cannot produce bench file {path}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &manifest_path {
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(path)?;
            subvt_exp::report::write_manifest(&mut file, &study, &failures)
        };
        if let Err(e) = write() {
            eprintln!("cannot write manifest file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} experiments failed (see above)",
            failures.len(),
            ids.len()
        );
        ExitCode::FAILURE
    }
}

/// Parses a saved trace (either sink format, sniffed from the content),
/// validates its invariants, and renders the span-tree report. Manifest
/// files (from `--manifest`) are also recognised and summarised.
fn trace_report(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read trace file {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if text.trim_start().starts_with("{\"ts\":") && text.contains("\"trace_id\"") {
        // The daemon's JSONL access log (one request per line).
        return match tracefmt::parse_access_log(&text) {
            Ok(records) => {
                print!("{}", tracefmt::render_access_report(&records));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("malformed access log {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if text.trim_start().starts_with("{\"v\":") {
        // A run manifest, not a trace.
        return match parse_json(text.trim()) {
            Ok(manifest) => {
                print!("{}", tracefmt::render_manifest_report(&manifest));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("malformed manifest {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let trace = match parse_trace(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("malformed trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = tracefmt::validate(&trace) {
        eprintln!("invalid trace {path}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", tracefmt::render_report(&trace));
    ExitCode::SUCCESS
}

/// Parses a trace in either sink format (sniffed from the content).
fn parse_trace(text: &str) -> Result<TraceSnapshot, String> {
    if text.trim_start().starts_with("{\"traceEvents\"") {
        tracefmt::parse_chrome(text).and_then(|events| tracefmt::trace_from_chrome(&events))
    } else {
        tracefmt::parse_jsonl(text)
    }
}

/// Loads a trace in either sink format.
fn load_trace(path: &str) -> Result<TraceSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_trace(&text).map_err(|e| format!("malformed trace {path}: {e}"))
}

/// Stitches a client-side trace onto a server-side trace via the
/// wire-propagated `client_span` attributes, prints the combined span
/// tree, and (with `--out`) writes one Perfetto-loadable Chrome trace.
fn trace_stitch(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut out_path: Option<&String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--out" {
            match iter.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            paths.push(arg);
        }
    }
    let [client_path, server_path] = paths[..] else {
        eprintln!("usage: repro trace-stitch <client-trace> <server-trace> [--out <chrome.json>]");
        return ExitCode::FAILURE;
    };
    let (client, server) = match (load_trace(client_path), load_trace(server_path)) {
        (Ok(c), Ok(s)) => (c, s),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let stitched = match tracefmt::stitch(&client, &server) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot stitch {client_path} + {server_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = tracefmt::validate(&stitched) {
        eprintln!("stitched trace is invalid: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = out_path {
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(path)?;
            tracefmt::write_stitched_chrome(&stitched, &mut file)
        };
        if let Err(e) = write() {
            eprintln!("cannot write stitched trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote stitched Chrome trace to {path}");
    }
    print!("{}", tracefmt::render_report(&stitched));
    ExitCode::SUCCESS
}

/// Expands `all`/`ext`/`everything` tokens, collecting experiment ids.
fn expand_ids(ids: &mut Vec<String>, token: &str) {
    match token {
        "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| (*s).to_owned())),
        "ext" => ids.extend(EXTENSION_EXPERIMENTS.iter().map(|s| (*s).to_owned())),
        "everything" => {
            ids.extend(ALL_EXPERIMENTS.iter().map(|s| (*s).to_owned()));
            ids.extend(EXTENSION_EXPERIMENTS.iter().map(|s| (*s).to_owned()));
        }
        other => ids.push(other.to_owned()),
    }
}

/// The `--backend/--circuit-backend/--temp` flags parsed into one
/// [`Study`]: the one parser behind `repro`, the study `repro fleet`
/// records and forwards to its workers, and `--fleet-worker`.
#[derive(Default)]
struct StudyArgs {
    study: Study,
    given: Vec<String>,
}

impl StudyArgs {
    /// Applies one study flag and its value; a flag repeated with a
    /// different value is an error.
    fn apply(&mut self, flag: &str, value: Option<&String>) -> Result<(), String> {
        let before = self.study;
        let value = value.map(String::as_str);
        match flag {
            "--backend" => {
                self.study.backend = value
                    .and_then(|v| v.parse().ok())
                    .ok_or("--backend needs one of: analytic, tcad")?;
            }
            "--circuit-backend" => {
                self.study.circuit = value
                    .and_then(|v| v.parse().ok())
                    .ok_or("--circuit-backend needs one of: analytic, spice")?;
            }
            _ => {
                let kelvin = value
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|k| k.is_finite() && *k > 0.0)
                    .ok_or("--temp needs a positive temperature in kelvin")?;
                self.study.temp = Temperature::from_kelvin(kelvin);
            }
        }
        if self.given.iter().any(|g| g == flag) && self.study != before {
            return Err(format!("{flag} given twice with conflicting values"));
        }
        self.given.push(flag.to_owned());
        Ok(())
    }
}

/// The fleet driver: shards the sweep matrix across N worker
/// processes over the segmented shared cache, supervises them with
/// the retry/deadline ladder, merges their outputs and manifests in
/// the original argument order, and compacts the cache segments into
/// one canonical file on the way out.
fn fleet_main(args: &[String]) -> ExitCode {
    use std::path::PathBuf;
    use std::time::Duration;
    use subvt_engine::cache::seg;
    use subvt_engine::fleet::{plan, supervise, FleetPolicy, ShardStrategy};

    let mut workers = 2usize;
    let mut strategy = ShardStrategy::KeyRange;
    let mut max_attempts = 3u32;
    let mut deadline_secs: Option<u64> = None;
    let mut csv = false;
    let mut cache_arg: Option<String> = None;
    let mut manifest_path: Option<String> = None;
    let mut study = StudyArgs::default();
    let mut passthrough: Vec<String> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workers" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--workers needs a positive integer");
                    return ExitCode::FAILURE;
                };
                workers = n;
            }
            "--shard" => {
                match iter.next().map(|v| v.parse::<ShardStrategy>()) {
                    Some(Ok(s)) => strategy = s,
                    other => {
                        if let Some(Err(e)) = other {
                            eprintln!("{e}");
                        } else {
                            eprintln!("--shard needs one of: key-range, round-robin");
                        }
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--max-attempts" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--max-attempts needs a positive integer");
                    return ExitCode::FAILURE;
                };
                max_attempts = n;
            }
            "--deadline-secs" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--deadline-secs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                deadline_secs = Some(n);
            }
            "--csv" => csv = true,
            "--cache" => {
                let Some(path) = iter.next() else {
                    eprintln!("--cache needs a file path");
                    return ExitCode::FAILURE;
                };
                cache_arg = Some(path.clone());
            }
            "--manifest" => {
                let Some(path) = iter.next() else {
                    eprintln!("--manifest needs a file path");
                    return ExitCode::FAILURE;
                };
                manifest_path = Some(path.clone());
            }
            "--backend" | "--circuit-backend" | "--temp" | "--jobs" => {
                let Some(value) = iter.next() else {
                    eprintln!("{arg} needs a value");
                    return ExitCode::FAILURE;
                };
                if arg != "--jobs" {
                    if let Err(e) = study.apply(arg, Some(value)) {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
                passthrough.push(arg.clone());
                passthrough.push(value.clone());
            }
            "--help" | "-h" => {
                print_fleet_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown fleet option {other} (try `repro fleet --help`)");
                return ExitCode::FAILURE;
            }
            other => expand_ids(&mut ids, other),
        }
    }
    if ids.is_empty() {
        print_fleet_help();
        return ExitCode::FAILURE;
    }

    // Without --cache the fleet still needs a shared store for its
    // segments and staged outputs; use a scratch one and remove it at
    // the end.
    let scratch_dir: Option<PathBuf> = if cache_arg.is_none() {
        Some(std::env::temp_dir().join(format!("subvt-fleet-{}", std::process::id())))
    } else {
        None
    };
    let cache_path: PathBuf = match (&cache_arg, &scratch_dir) {
        (Some(p), _) => PathBuf::from(p),
        (None, Some(dir)) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create scratch dir {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            dir.join("fleet-cache.jsonl")
        }
        (None, None) => unreachable!(),
    };

    // The parent holds the compaction lease for the whole fleet run: a
    // stale (dead-holder) lease is reclaimed, a live holder is an error
    // — two fleets over one store must not interleave compactions — and
    // its workers' closes never compact behind its back.
    let lease = match seg::claim_compaction(&cache_path) {
        Ok(Some(lease)) => lease,
        Ok(None) => {
            eprintln!(
                "cache file {} has a live compaction-lease holder; \
                 refusing to run a fleet over it",
                cache_path.display()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!(
                "cannot claim the compaction lease for {}: {e}",
                cache_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let shards = plan(&ids, workers, strategy);
    let outdir = seg::segment_dir(&cache_path);
    let active = shards.iter().filter(|s| !s.ids.is_empty()).count();
    eprintln!(
        "fleet: {} experiment(s) over {active} worker(s) ({strategy} sharding)",
        ids.len()
    );

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot resolve own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let policy = FleetPolicy {
        max_attempts,
        deadline: deadline_secs.map(Duration::from_secs),
        poll: Duration::from_millis(25),
    };
    let mut tail_quarantined = 0usize;
    let report = supervise(
        &shards,
        &policy,
        |shard, attempt| {
            if attempt > 0 {
                eprintln!(
                    "fleet: re-running worker {} (attempt {})",
                    shard.index,
                    attempt + 1
                );
            }
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("--fleet-worker")
                .arg(shard.index.to_string())
                .arg("--cache")
                .arg(&cache_path)
                .args(&passthrough);
            if csv {
                cmd.arg("--csv");
            }
            cmd.args(&shard.ids)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit());
            cmd.spawn()
        },
        |shard, reason| {
            eprintln!(
                "fleet: worker {} died ({reason}); scrubbing its segment tail",
                shard.index
            );
            let seg_path = outdir.join(format!("seg-{}.jsonl", shard.index));
            if let Ok(r) = seg::scrub_segment(&seg_path) {
                tail_quarantined += r.quarantined;
            }
        },
    );
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet supervision failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Merge staged outputs in the original argument order, so fleet
    // stdout is byte-identical to the single-process run.
    let ext = if csv { "csv" } else { "txt" };
    let mut failures: Vec<FigureFailure> = Vec::new();
    let mut merged = String::new();
    for id in &ids {
        let staged = outdir.join(format!("out-{id}.{ext}"));
        match std::fs::read_to_string(&staged) {
            Ok(text) => merged.push_str(&text),
            Err(_) => {
                eprintln!("FAILED {id}: no output from its fleet worker");
                failures.push(FigureFailure {
                    id: id.clone(),
                    message: "no output from fleet worker (shard failed)".to_owned(),
                });
            }
        }
    }
    print!("{merged}");

    // Collect worker manifests (verbatim) and their reclaim counters.
    let reclaim_counter = seg::lease_reclaim_counter_name(&cache_path);
    let mut worker_manifests: Vec<String> = Vec::new();
    let mut lease_reclaimed = 0u64;
    for shard in &shards {
        if shard.ids.is_empty() {
            continue;
        }
        let path = outdir.join(format!("seg-{}-manifest.json", shard.index));
        if let Ok(text) = std::fs::read_to_string(&path) {
            lease_reclaimed += parse_json(text.trim())
                .ok()
                .and_then(|m| {
                    m.get("counters")?
                        .get(&reclaim_counter)
                        .and_then(Json::as_u64)
                })
                .unwrap_or(0);
            worker_manifests.push(text.trim().to_owned());
        }
        std::fs::remove_file(&path).ok();
    }

    if let Some(path) = &manifest_path {
        let mut shards_json = String::new();
        for (i, (shard, run)) in shards.iter().zip(&report.runs).enumerate() {
            if i > 0 {
                shards_json.push(',');
            }
            let mut id_list = String::new();
            for (j, id) in shard.ids.iter().enumerate() {
                if j > 0 {
                    id_list.push(',');
                }
                id_list.push_str(&format!("\"{id}\""));
            }
            shards_json.push_str(&format!(
                "{{\"index\":{},\"ids\":[{id_list}],\"key_lo\":\"{:016x}\",\
                 \"key_hi\":\"{:016x}\",\"attempts\":{},\"failed\":{}}}",
                shard.index, shard.key_lo, shard.key_hi, run.attempts, run.failed
            ));
        }
        let fragment = format!(
            "{{\"workers\":{workers},\"strategy\":\"{strategy}\",\"restarts\":{},\
             \"shards_failed\":{},\"lease_reclaimed\":{lease_reclaimed},\
             \"tail_quarantined\":{tail_quarantined},\"shards\":[{shards_json}]}}",
            report.restarts, report.failed
        );
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(path)?;
            subvt_exp::report::write_fleet_manifest(
                &mut file,
                &study.study,
                &failures,
                &fragment,
                &worker_manifests,
            )
        };
        if let Err(e) = write() {
            eprintln!("cannot write manifest file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Retire the staged outputs, then fold every worker segment into
    // the canonical file.
    for id in &ids {
        std::fs::remove_file(outdir.join(format!("out-{id}.{ext}"))).ok();
    }
    match seg::compact(&cache_path, &subvt_engine::Cache::new(), lease) {
        Ok(r) => eprintln!(
            "fleet: compacted cache ({} entries, {} segment(s) merged)",
            r.written, r.segments_merged
        ),
        Err(e) => {
            eprintln!("cannot compact cache {}: {e}", cache_path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &scratch_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    if failures.is_empty() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} experiments failed (see above)",
            failures.len(),
            ids.len()
        );
        ExitCode::FAILURE
    }
}

/// One shard of a fleet: claims its segment, runs its ids, stages each
/// rendered table atomically under `<cache>.d/`, and writes its own
/// manifest for the parent's merge. Spawned by [`fleet_main`]; never
/// invoked by hand.
fn fleet_worker_main(args: &[String]) -> ExitCode {
    use subvt_engine::cache::seg;

    let mut worker_idx: Option<usize> = None;
    let mut cache_arg: Option<String> = None;
    let mut csv = false;
    let mut study = StudyArgs::default();
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fleet-worker" => {
                let Some(n) = iter.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--fleet-worker needs a worker index");
                    return ExitCode::FAILURE;
                };
                worker_idx = Some(n);
            }
            "--cache" => {
                let Some(path) = iter.next() else {
                    eprintln!("--cache needs a file path");
                    return ExitCode::FAILURE;
                };
                cache_arg = Some(path.clone());
            }
            "--csv" => csv = true,
            "--jobs" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                subvt_engine::configure_jobs(n);
            }
            "--backend" | "--circuit-backend" | "--temp" => {
                if let Err(e) = study.apply(arg, iter.next()) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            other if other.starts_with('-') => {
                eprintln!("unknown fleet-worker option {other}");
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_owned()),
        }
    }
    let (Some(idx), Some(cache_arg)) = (worker_idx, cache_arg) else {
        eprintln!("--fleet-worker requires --cache and a worker index");
        return ExitCode::FAILURE;
    };
    let study = study.study;
    let cache_path = std::path::Path::new(&cache_arg);

    let session = match subvt_exp::CacheSession::open_segment(cache_path, &idx.to_string()) {
        Ok(Some(session)) => session,
        Ok(None) => {
            eprintln!(
                "fleet worker {idx}: segment is held by a live process; \
                 refusing to double-run a shard"
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("fleet worker {idx}: cannot open cache segment: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outdir = seg::segment_dir(cache_path);
    let ext = if csv { "csv" } else { "txt" };
    let crash_marker = std::env::var_os("SUBVT_FLEET_CRASH_ONCE");

    for (i, id) in ids.iter().enumerate() {
        let table = match study.run(id) {
            Ok(table) => table,
            Err(e) => {
                eprintln!("fleet worker {idx}: experiment `{id}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let rendered = table.render(csv);
        let staged = outdir.join(format!("out-{id}.{ext}"));
        let tmp = outdir.join(format!("out-{id}.{ext}.tmp"));
        let write = std::fs::write(&tmp, &rendered).and_then(|()| std::fs::rename(&tmp, &staged));
        if let Err(e) = write {
            eprintln!("fleet worker {idx}: cannot stage output for {id}: {e}");
            return ExitCode::FAILURE;
        }
        // Chaos hook for the integration/CI crash drills: the first
        // worker (fleet-wide) to claim the marker file tears its
        // segment tail and SIGKILLs itself after its first result —
        // exactly one injected crash per fleet run.
        if i == 0 {
            if let Some(marker) = &crash_marker {
                fleet_crash_once(std::path::Path::new(marker), &session);
            }
        }
    }

    // Stage this worker's manifest (atomically — a kill mid-write must
    // not hand the parent a torn file).
    let mut buf: Vec<u8> = Vec::new();
    if let Err(e) = subvt_exp::report::write_manifest(&mut buf, &study, &[]) {
        eprintln!("fleet worker {idx}: cannot render manifest: {e}");
        return ExitCode::FAILURE;
    }
    let manifest = outdir.join(format!("seg-{idx}-manifest.json"));
    let tmp = outdir.join(format!("seg-{idx}-manifest.json.tmp"));
    let write = std::fs::write(&tmp, &buf).and_then(|()| std::fs::rename(&tmp, &manifest));
    if let Err(e) = write {
        eprintln!("fleet worker {idx}: cannot stage manifest: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = session.close() {
        eprintln!("fleet worker {idx}: cannot seal cache segment: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Injects one fleet-wide crash when `SUBVT_FLEET_CRASH_ONCE` is set:
/// atomically claims the marker file (losers return and run on), tears
/// the segment's tail mid-append, and SIGKILLs this process.
fn fleet_crash_once(marker: &std::path::Path, session: &subvt_exp::CacheSession) {
    use std::io::Write as _;

    if std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(marker)
        .is_err()
    {
        return;
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .append(true)
        .open(session.segment_path())
    {
        // A torn line: no newline, CRC impossible — what a real kill
        // mid-append leaves behind.
        let _ = f.write_all(b"{\"ns\":\"torn-by-injected-crash\",\"key\":\"00");
        let _ = f.flush();
    }
    eprintln!("fleet: injecting SIGKILL crash (SUBVT_FLEET_CRASH_ONCE)");
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    // If an external `kill` is unavailable, abort() still dies
    // abnormally (SIGABRT) — the supervisor treats both as a crash.
    std::process::abort();
}

fn print_fleet_help() {
    eprintln!("usage: repro fleet [options] <experiment...|all|ext|everything>");
    eprintln!();
    eprintln!("Shards the experiments across N worker processes over a shared,");
    eprintln!("lease-segmented result cache; crashed workers are re-run and the");
    eprintln!("merged output is byte-identical to the single-process run.");
    eprintln!();
    eprintln!("options:");
    eprintln!("  --workers <N>        worker processes (default: 2)");
    eprintln!("  --shard <s>          sharding: key-range (default) | round-robin");
    eprintln!("  --max-attempts <N>   attempts per shard before giving up (default: 3)");
    eprintln!("  --deadline-secs <N>  per-attempt wall-clock budget (default: none)");
    eprintln!("  --cache <path>       shared cache file (default: a scratch file,");
    eprintln!("                       removed after the run)");
    eprintln!("  --manifest <path>    merged fleet manifest: parent summary, a `fleet`");
    eprintln!("                       block (shards/restarts/reclaims), and every");
    eprintln!("                       worker manifest verbatim");
    eprintln!("  --csv                CSV output instead of aligned text");
    eprintln!("  --backend/--circuit-backend/--temp/--jobs  forwarded to workers");
}

fn print_help() {
    eprintln!("usage: repro [options] <experiment...|all|ext|everything>");
    eprintln!("       repro fleet --workers <N> [options] <experiment...>");
    eprintln!("       repro trace-report <trace-file|access-log|manifest>");
    eprintln!("       repro trace-stitch <client-trace> <server-trace> [--out <chrome.json>]");
    eprintln!("       repro --list");
    eprintln!();
    eprintln!("options:");
    eprintln!("  --csv                CSV output instead of aligned text");
    eprintln!("  --backend <b>        device-model backend: analytic (default) | tcad");
    eprintln!("  --circuit-backend <b> circuit-metric backend: analytic (default) | spice");
    eprintln!("  --temp <K>           operating temperature in kelvin (default: 300, room)");
    eprintln!("  --jobs <N>           engine worker threads (default: cores, or $SUBVT_JOBS)");
    eprintln!("  --trace <path>       write the run's trace on exit");
    eprintln!("  --trace-format <f>   trace sink: jsonl (default) | chrome (Perfetto)");
    eprintln!("  --manifest <path>    write a per-run summary manifest (JSON)");
    eprintln!("  --bench <path>       write a BENCH_spice.json artifact (needs a");
    eprintln!("                       `montecarlo --circuit-backend spice` run)");
    eprintln!("  --cache <path>       load the result cache before, persist it after");
    eprintln!("  --keep-going         isolate experiment failures: report each in the");
    eprintln!("                       manifest's failures block, run the full sweep, and");
    eprintln!("                       exit nonzero only at the end");
    eprintln!();
    eprintln!("Reproduces the tables and figures of 'Nanometer Device Scaling");
    eprintln!("in Subthreshold Circuits' (DAC 2007) from the subvt stack.");
}
