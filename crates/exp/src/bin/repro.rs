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
//! repro fleet --workers 4 all
//!                           # shard the sweep over worker processes
//! repro trace-report t.jsonl
//!                           # render a saved trace as a span tree
//! repro trace-report m.json # (manifest files are sniffed and summarised)
//! repro --list              # list experiment ids
//! ```
//!
//! One parser ([`parse`]) reads the command lines of a plain run, of
//! `repro fleet` and of a fleet worker, and one run path ([`sweep`])
//! serves the plain run and the worker. A worker (`--fleet-worker N`,
//! spawned by `repro fleet`, never by hand) is a `--keep-going` run that
//! opens its cache as segment `N` and stages each table, and its
//! manifest, under `<cache>.d/` for the parent to merge instead of
//! printing them.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use subvt_engine::cache::seg;
use subvt_engine::cli::{self, parsed, positive, value, TraceFormat};
use subvt_engine::fleet::ShardStrategy;
use subvt_engine::json::{parse_json, Json};
use subvt_engine::trace::TraceSnapshot;
use subvt_exp::{tracefmt, FigureFailure, Study, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS};
use subvt_units::Temperature;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("trace-report") => match argv.get(1) {
            Some(path) => trace_report(path),
            None => Err("usage: repro trace-report <trace-file>".to_owned()),
        },
        Some("trace-stitch") => trace_stitch(&argv[1..]),
        _ => parse(&argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// A parsed `repro` or `repro fleet` command line.
#[derive(Default)]
struct Args {
    /// `repro fleet`: the fleet's supervision options.
    fleet: Option<FleetOpts>,
    /// `--fleet-worker N`: this run is shard `N` of a fleet.
    worker: Option<usize>,
    help: bool,
    list: bool,
    csv: bool,
    keep_going: bool,
    jobs: Option<usize>,
    trace: Option<String>,
    trace_format: TraceFormat,
    manifest: Option<String>,
    bench: Option<String>,
    cache: Option<String>,
    study: StudyArgs,
    /// The study flags and `--jobs` as given: what `repro fleet`
    /// forwards to its workers.
    forward: Vec<String>,
    ids: Vec<String>,
}

/// What `repro fleet` adds to a run: how to shard and supervise it.
struct FleetOpts {
    workers: usize,
    strategy: ShardStrategy,
    max_attempts: u32,
    deadline_secs: Option<u64>,
}

impl Default for FleetOpts {
    fn default() -> Self {
        Self {
            workers: 2,
            strategy: ShardStrategy::KeyRange,
            max_attempts: 3,
            deadline_secs: None,
        }
    }
}

/// Parses a command line (without the program name). A leading `fleet`
/// selects the fleet driver, which rejects options it does not know; a
/// plain run takes them as experiment ids, which fail as unknown.
/// Parsing stops at `--help` or `--list`.
fn parse(argv: &[String]) -> Result<Args, String> {
    let fleet = argv.first().is_some_and(|a| a == "fleet");
    let mut args = Args {
        fleet: fleet.then(FleetOpts::default),
        ..Args::default()
    };
    let mut it = argv[usize::from(fleet)..].iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match (flag, &mut args.fleet) {
            ("--help" | "-h", _) => {
                args.help = true;
                break;
            }
            ("--csv", _) => args.csv = true,
            ("--cache", _) => args.cache = Some(value(&mut it, "--cache needs a file path")?),
            ("--manifest", _) => {
                args.manifest = Some(value(&mut it, "--manifest needs a file path")?);
            }
            ("--backend" | "--circuit-backend" | "--temp" | "--jobs", opts) => {
                let given = it.next();
                // `repro fleet` names a missing value the same way for all four.
                if opts.is_some() && given.is_none() {
                    return Err(format!("{flag} needs a value"));
                }
                if flag == "--jobs" {
                    args.jobs = Some(positive(given, flag)?);
                } else {
                    args.study.apply(flag, given)?;
                }
                if let Some(given) = given {
                    args.forward.extend([arg.clone(), given.clone()]);
                }
            }
            ("--workers", Some(opts)) => opts.workers = positive(it.next(), flag)?,
            ("--max-attempts", Some(opts)) => opts.max_attempts = positive(it.next(), flag)?,
            ("--deadline-secs", Some(opts)) => {
                opts.deadline_secs = Some(positive(it.next(), flag)?)
            }
            ("--shard", Some(opts)) => {
                opts.strategy =
                    value(&mut it, "--shard needs one of: key-range, round-robin")?.parse()?;
            }
            (other, Some(_)) if other.starts_with('-') => {
                return Err(format!(
                    "unknown fleet option {other} (try `repro fleet --help`)"
                ));
            }
            ("--keep-going", None) => args.keep_going = true,
            ("--list", None) => {
                args.list = true;
                break;
            }
            ("--trace", None) => args.trace = Some(value(&mut it, "--trace needs a file path")?),
            ("--trace-format", None) => {
                args.trace_format = it.next().map_or("", String::as_str).parse()?;
            }
            ("--bench", None) => args.bench = Some(value(&mut it, "--bench needs a file path")?),
            ("--fleet-worker", None) => {
                let index = parsed(it.next(), |_| true, "--fleet-worker needs a worker index")?;
                args.worker = Some(index);
            }
            (other, _) => expand_ids(&mut args.ids, other),
        }
    }
    Ok(args)
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
/// [`Study`]: the study a run uses, and the one `repro fleet` records
/// and forwards to its workers.
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
        match flag {
            "--backend" => {
                self.study.backend =
                    parsed(value, |_| true, "--backend needs one of: analytic, tcad")?;
            }
            "--circuit-backend" => {
                self.study.circuit = parsed(
                    value,
                    |_| true,
                    "--circuit-backend needs one of: analytic, spice",
                )?;
            }
            _ => {
                let kelvin = parsed(
                    value,
                    |k: &f64| k.is_finite() && *k > 0.0,
                    "--temp needs a positive temperature in kelvin",
                )?;
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

/// Runs a parsed command line.
fn run(args: &Args) -> Result<(), String> {
    let help = if args.fleet.is_some() {
        FLEET_HELP
    } else {
        HELP
    };
    if args.help {
        eprintln!("{help}");
        return Ok(());
    }
    if args.list {
        for id in ALL_EXPERIMENTS.iter().chain(&EXTENSION_EXPERIMENTS) {
            println!("{id}");
        }
        return Ok(());
    }
    if args.ids.is_empty() {
        return Err(help.to_owned());
    }
    match &args.fleet {
        Some(opts) => fleet(args, opts),
        None => sweep(args),
    }
}

/// Runs the ids through [`Study::run_ids`] and prints each table in id
/// order; a fleet worker stages them for its parent instead.
fn sweep(args: &Args) -> Result<(), String> {
    cli::apply_jobs(args.jobs)?;
    let study = args.study.study;

    // Leased segment + load, shared with `subvt-serve`: every run
    // appends to its own segment under `<cache>.d/`, so concurrent runs
    // against the same file all persist, and the close compacts under
    // the compaction lease. A fleet worker claims segment `N` instead.
    let session = match (&args.cache, args.worker) {
        (None, None) => None,
        (None, Some(_)) => return Err("--fleet-worker requires --cache and a worker index".into()),
        (Some(path), None) => Some(
            subvt_exp::CacheSession::open(path.as_ref())
                .map_err(|e| format!("cannot open cache file {path}: {e}"))?,
        ),
        (Some(path), Some(idx)) => Some(
            subvt_exp::CacheSession::open_segment(path.as_ref(), &idx.to_string())
                .map_err(|e| format!("fleet worker {idx}: cannot open cache segment: {e}"))?
                .ok_or_else(|| {
                    format!(
                        "fleet worker {idx}: segment is held by a live process; \
                         refusing to double-run a shard"
                    )
                })?,
        ),
    };
    let staging = args
        .worker
        .zip(args.cache.as_deref())
        .map(|(idx, cache)| (idx, seg::segment_dir(cache.as_ref())));
    let crash_marker = staging
        .as_ref()
        .and_then(|_| std::env::var_os("SUBVT_FLEET_CRASH_ONCE"));

    // Plain mode runs the ids before the first unknown one and then
    // stops; `--keep-going` (and a fleet worker) reports the unknown ids
    // with the failures.
    let keep_going = args.keep_going || staging.is_some();
    let ids = &args.ids;
    let run = match ids.iter().position(|id| !subvt_exp::is_experiment(id)) {
        Some(at) if !keep_going => &ids[..at],
        _ => &ids[..],
    };
    let mut failures: Vec<FigureFailure> = Vec::new();
    let mut staged = 0;
    for (id, outcome) in run.iter().zip(study.run_ids(run)) {
        match outcome {
            Ok(table) => {
                let text = table.render(args.csv);
                let Some((_, dir)) = &staging else {
                    print!("{text}");
                    continue;
                };
                let path = dir.join(format!("out-{id}.{}", ext(args.csv)));
                write_atomic(&path, text.as_bytes())
                    .map_err(|e| format!("cannot stage output for {id}: {e}"))?;
                staged += 1;
                // Chaos hook for the integration/CI crash drills: the
                // first worker (fleet-wide) to claim the marker file
                // tears its segment tail and SIGKILLs itself after its
                // first staged table — one injected crash per fleet run.
                if let (1, Some(marker), Some(session)) = (staged, &crash_marker, &session) {
                    fleet_crash_once(Path::new(marker), session);
                }
            }
            Err(failure) if keep_going => {
                // A fleet worker's failures go to its staged manifest;
                // the parent prints them once, in argument order.
                if staging.is_none() {
                    eprintln!("FAILED {}: {}", failure.id, failure.message);
                }
                failures.push(failure);
            }
            Err(failure) => panic!("{failure}"),
        }
    }
    if let Some(id) = ids.get(run.len()) {
        return Err(format!("unknown experiment `{id}` (try --list)"));
    }

    if let (Some(session), Some(path)) = (session, &args.cache) {
        session
            .close()
            .map_err(|e| format!("cannot write cache file {path}: {e}"))?;
    }
    if let Some(path) = &args.trace {
        cli::write_trace(path, args.trace_format)
            .map_err(|e| format!("cannot write trace file {path}: {e}"))?;
    }
    if let Some(path) = &args.bench {
        // Snapshot (not drain): the manifest writer below still needs
        // the counters this artifact summarises.
        let snap = subvt_engine::trace::global().snapshot();
        let artifact = subvt_exp::report::render_spice_bench(&snap)
            .map_err(|msg| format!("cannot produce bench file {path}: {msg}"))?;
        std::fs::write(path, artifact + "\n")
            .map_err(|e| format!("cannot write bench file {path}: {e}"))?;
    }
    // A worker stages its manifest atomically: a kill mid-write must not
    // hand the parent a torn file.
    let manifest = match &staging {
        Some((idx, dir)) => Some(staged_manifest(dir, *idx)),
        None => args.manifest.as_ref().map(PathBuf::from),
    };
    if let Some(path) = manifest {
        let mut buf: Vec<u8> = Vec::new();
        subvt_exp::report::write_manifest(&mut buf, &study, &failures)
            .and_then(|()| match staging {
                Some(_) => write_atomic(&path, &buf),
                None => std::fs::write(&path, &buf),
            })
            .map_err(|e| format!("cannot write manifest file {}: {e}", path.display()))?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} experiments failed ({})",
            failures.len(),
            ids.len(),
            if staging.is_some() {
                "staged for the fleet"
            } else {
                "see above"
            }
        ))
    }
}

/// The extension of a staged table.
fn ext(csv: bool) -> &'static str {
    if csv {
        "csv"
    } else {
        "txt"
    }
}

/// Where fleet worker `index` stages its manifest. Staged last, it
/// marks a worker that ran its whole shard.
fn staged_manifest(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("seg-{index}-manifest.json"))
}

/// Writes `path` through a sibling `.tmp` file and a rename, so a reader
/// never sees a torn file.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Parses a saved trace (either sink format, sniffed from the content),
/// validates its invariants, and renders the span-tree report. Manifest
/// files (from `--manifest`) and the daemon's access log are also
/// recognised and summarised.
fn trace_report(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace file {path}: {e}"))?;
    let report = if text.trim_start().starts_with("{\"ts\":") && text.contains("\"trace_id\"") {
        // The daemon's JSONL access log (one request per line).
        let records = tracefmt::parse_access_log(&text)
            .map_err(|e| format!("malformed access log {path}: {e}"))?;
        tracefmt::render_access_report(&records)
    } else if text.trim_start().starts_with("{\"v\":") {
        // A run manifest, not a trace.
        let manifest =
            parse_json(text.trim()).map_err(|e| format!("malformed manifest {path}: {e}"))?;
        tracefmt::render_manifest_report(&manifest)
    } else {
        let trace = parse_trace(&text).map_err(|e| format!("malformed trace {path}: {e}"))?;
        tracefmt::validate(&trace).map_err(|e| format!("invalid trace {path}: {e}"))?;
        tracefmt::render_report(&trace)
    };
    print!("{report}");
    Ok(())
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
fn trace_stitch(argv: &[String]) -> Result<(), String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            out_path = Some(value(&mut it, "--out needs a file path")?);
        } else {
            paths.push(arg);
        }
    }
    let [client_path, server_path] = paths[..] else {
        return Err(
            "usage: repro trace-stitch <client-trace> <server-trace> [--out <chrome.json>]"
                .to_owned(),
        );
    };
    let client = load_trace(client_path)?;
    let server = load_trace(server_path)?;
    let stitched = tracefmt::stitch(&client, &server)
        .map_err(|e| format!("cannot stitch {client_path} + {server_path}: {e}"))?;
    tracefmt::validate(&stitched).map_err(|e| format!("stitched trace is invalid: {e}"))?;
    if let Some(path) = out_path {
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&path)?;
            tracefmt::write_stitched_chrome(&stitched, &mut file)
        };
        write().map_err(|e| format!("cannot write stitched trace {path}: {e}"))?;
        eprintln!("wrote stitched Chrome trace to {path}");
    }
    print!("{}", tracefmt::render_report(&stitched));
    Ok(())
}

/// The fleet driver: shards the sweep matrix across N worker
/// processes over the segmented shared cache, supervises them with
/// the retry/deadline ladder, merges their outputs and manifests in
/// the original argument order, and compacts the cache segments into
/// one canonical file on the way out.
fn fleet(args: &Args, opts: &FleetOpts) -> Result<(), String> {
    use std::time::Duration;
    use subvt_engine::fleet::{plan, supervise, FleetPolicy};

    // An unknown id fails the whole fleet before anything is spawned or
    // claimed, as it fails a plain run.
    if let Some(id) = args.ids.iter().find(|id| !subvt_exp::is_experiment(id)) {
        return Err(format!("unknown experiment `{id}` (try --list)"));
    }

    // Without --cache the fleet still needs a shared store for its
    // segments and staged outputs; use a scratch one and remove it at
    // the end.
    let scratch_dir = std::env::temp_dir().join(format!("subvt-fleet-{}", std::process::id()));
    let cache_path = match &args.cache {
        Some(path) => PathBuf::from(path),
        None => {
            std::fs::create_dir_all(&scratch_dir)
                .map_err(|e| format!("cannot create scratch dir {}: {e}", scratch_dir.display()))?;
            scratch_dir.join("fleet-cache.jsonl")
        }
    };

    // The parent holds the compaction lease for the whole fleet run: a
    // stale (dead-holder) lease is reclaimed, a live holder is an error
    // — two fleets over one store must not interleave compactions — and
    // its workers' closes never compact behind its back.
    let lease = seg::claim_compaction(&cache_path)
        .map_err(|e| {
            format!(
                "cannot claim the compaction lease for {}: {e}",
                cache_path.display()
            )
        })?
        .ok_or_else(|| {
            format!(
                "cache file {} has a live compaction-lease holder; \
                 refusing to run a fleet over it",
                cache_path.display()
            )
        })?;

    let ids = &args.ids;
    let (workers, strategy) = (opts.workers, opts.strategy);
    let shards = plan(ids, workers, strategy);
    let outdir = seg::segment_dir(&cache_path);
    let active = shards.iter().filter(|s| !s.ids.is_empty()).count();
    eprintln!(
        "fleet: {} experiment(s) over {active} worker(s) ({strategy} sharding)",
        ids.len()
    );

    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve own executable: {e}"))?;
    let policy = FleetPolicy {
        max_attempts: opts.max_attempts,
        deadline: opts.deadline_secs.map(Duration::from_secs),
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
            // A manifest left by an earlier fleet over this store must
            // not pass for this attempt's.
            std::fs::remove_file(staged_manifest(&outdir, shard.index)).ok();
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("--fleet-worker")
                .arg(shard.index.to_string())
                .arg("--cache")
                .arg(&cache_path)
                .args(&args.forward);
            if args.csv {
                cmd.arg("--csv");
            }
            cmd.args(&shard.ids)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit());
            cmd.spawn()
        },
        // A worker that staged its manifest ran every id; it exits 1
        // when some failed, and a re-run would fail them again.
        |shard| staged_manifest(&outdir, shard.index).exists(),
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
    )
    .map_err(|e| format!("fleet supervision failed: {e}"))?;

    // Collect worker manifests (verbatim), their reclaim counters and
    // the failures they report.
    let mut worker_manifests: Vec<String> = Vec::new();
    for shard in shards.iter().filter(|s| !s.ids.is_empty()) {
        let path = staged_manifest(&outdir, shard.index);
        if let Ok(text) = std::fs::read_to_string(&path) {
            worker_manifests.push(text.trim().to_owned());
        }
        std::fs::remove_file(&path).ok();
    }
    let manifests: Vec<Json> = worker_manifests
        .iter()
        .filter_map(|m| parse_json(m).ok())
        .collect();
    let reclaim_counter = seg::lease_reclaim_counter_name(&cache_path);
    let lease_reclaimed: u64 = manifests
        .iter()
        .filter_map(|m| m.get("counters")?.get(&reclaim_counter)?.as_u64())
        .sum();
    let reported = |id: &str| {
        manifests
            .iter()
            .filter_map(|m| m.get("failures")?.as_arr())
            .flatten()
            .find(|f| f.get("id").and_then(Json::as_str) == Some(id))
            .and_then(|f| f.get("message")?.as_str())
    };

    // Merge staged outputs in the original argument order, so fleet
    // stdout is byte-identical to the single-process run. An id with no
    // output carries its worker's message, or the shard's failure.
    let staged = |id: &str| outdir.join(format!("out-{id}.{}", ext(args.csv)));
    let mut failures: Vec<FigureFailure> = Vec::new();
    let mut merged = String::new();
    for id in ids {
        match std::fs::read_to_string(staged(id)) {
            Ok(text) => merged.push_str(&text),
            Err(_) => {
                let message = reported(id).unwrap_or("no output from fleet worker (shard failed)");
                eprintln!("FAILED {id}: {message}");
                failures.push(FigureFailure {
                    id: id.clone(),
                    message: message.to_owned(),
                });
            }
        }
    }
    print!("{merged}");

    if let Some(path) = &args.manifest {
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
                &args.study.study,
                &failures,
                &fragment,
                &worker_manifests,
            )
        };
        write().map_err(|e| format!("cannot write manifest file {path}: {e}"))?;
    }

    // Retire the staged outputs, then fold every worker segment into
    // the canonical file.
    for id in ids {
        std::fs::remove_file(staged(id)).ok();
    }
    let r = seg::compact(&cache_path, &subvt_engine::Cache::new(), lease)
        .map_err(|e| format!("cannot compact cache {}: {e}", cache_path.display()))?;
    eprintln!(
        "fleet: compacted cache ({} entries, {} segment(s) merged)",
        r.written, r.segments_merged
    );
    if args.cache.is_none() {
        std::fs::remove_dir_all(&scratch_dir).ok();
    }
    if failures.is_empty() && report.failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} of {} experiments failed (see above)",
            failures.len(),
            ids.len()
        ))
    }
}

/// Injects one fleet-wide crash when `SUBVT_FLEET_CRASH_ONCE` is set:
/// atomically claims the marker file (losers return and run on), tears
/// the segment's tail mid-append, and SIGKILLs this process.
fn fleet_crash_once(marker: &Path, session: &subvt_exp::CacheSession) {
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

const FLEET_HELP: &str = "\
usage: repro fleet [options] <experiment...|all|ext|everything>

Shards the experiments across N worker processes over a shared,
lease-segmented result cache; crashed workers are re-run and the
merged output is byte-identical to the single-process run.

options:
  --workers <N>        worker processes (default: 2)
  --shard <s>          sharding: key-range (default) | round-robin
  --max-attempts <N>   attempts per shard before giving up (default: 3)
  --deadline-secs <N>  per-attempt wall-clock budget (default: none)
  --cache <path>       shared cache file (default: a scratch file,
                       removed after the run)
  --manifest <path>    merged fleet manifest: parent summary, a `fleet`
                       block (shards/restarts/reclaims), and every
                       worker manifest verbatim
  --csv                CSV output instead of aligned text
  --backend/--circuit-backend/--temp/--jobs  forwarded to workers";

const HELP: &str = "\
usage: repro [options] <experiment...|all|ext|everything>
       repro fleet --workers <N> [options] <experiment...>
       repro trace-report <trace-file|access-log|manifest>
       repro trace-stitch <client-trace> <server-trace> [--out <chrome.json>]
       repro --list

options:
  --csv                CSV output instead of aligned text
  --backend <b>        device-model backend: analytic (default) | tcad
  --circuit-backend <b> circuit-metric backend: analytic (default) | spice
  --temp <K>           operating temperature in kelvin (default: 300, room)
  --jobs <N>           engine worker threads (default: cores, or $SUBVT_JOBS)
  --trace <path>       write the run's trace on exit
  --trace-format <f>   trace sink: jsonl (default) | chrome (Perfetto)
  --manifest <path>    write a per-run summary manifest (JSON)
  --bench <path>       write a BENCH_spice.json artifact (needs a
                       `montecarlo --circuit-backend spice` run)
  --cache <path>       load the result cache before, persist it after
  --keep-going         isolate experiment failures: report each in the
                       manifest's failures block, run the full sweep, and
                       exit nonzero only at the end

Reproduces the tables and figures of 'Nanometer Device Scaling
in Subthreshold Circuits' (DAC 2007) from the subvt stack.";

#[cfg(test)]
#[path = "repro/tests.rs"]
mod tests;
