//! Load generator and smoke-test driver for `subvt-serve`.
//!
//! ```text
//! subvt-loadgen --addr 127.0.0.1:7171 --wait-ready-ms 5000
//! subvt-loadgen --addr A --call fo1 --params '{"node":"ref90","v_dd":0.3}'
//! subvt-loadgen --addr A --call experiment --params '{"id":"fig2","format":"csv"}' --print payload
//! subvt-loadgen --addr A --mixed 200 --concurrency 8 --out BENCH_serve.json
//! subvt-loadgen --addr A --mixed 50 --trace client-trace.json --trace-format chrome
//! subvt-loadgen --addr A --metrics          # dump GET /metrics
//! subvt-loadgen --addr A --shutdown         # graceful drain
//! ```
//!
//! `--mixed` drives a deterministic mixed workload (device sweeps,
//! circuit metrics, deliberate duplicates for dedup) and writes a
//! `BENCH_serve.json` artifact stamped with schema version, git rev,
//! and UTC timestamp, carrying throughput and latency quantiles.
//! Every mixed request opens a `client.request` span and propagates
//! its trace id + span id on the wire, so the daemon's request spans
//! parent onto the client's — `--trace` writes the client-side tree,
//! and `repro trace-stitch` merges it with the server's into one
//! timeline. `--print payload` prints the *decoded* result payload —
//! for the `experiment` method that is byte-identical to `repro`
//! stdout, which CI checks with `cmp`.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use subvt_engine::cli::{self, parsed, positive, value, TraceFormat};
use subvt_engine::json::Json;
use subvt_engine::trace;
use subvt_serve::client::{http_get, Client};

/// A parsed `subvt-loadgen` command line.
struct Options {
    addr: String,
    wait_ready_ms: u64,
    action: Action,
    trace: Option<String>,
    trace_format: TraceFormat,
}

enum Action {
    /// `ping` or `shutdown`: one call, its response line printed as is.
    Plain(&'static str),
    Call {
        method: String,
        params: String,
        print_payload: bool,
    },
    Metrics,
    Mixed {
        requests: usize,
        concurrency: usize,
        out: Option<String>,
    },
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the action, then writes the client trace; a trace that cannot
/// be written is the error reported.
fn run(opts: &Options) -> Result<(), String> {
    // Keep client span ids disjoint from the server's so a stitched
    // trace never collides (the daemon allocates from 1 upward).
    trace::raise_id_floor(1 << 32);
    if opts.wait_ready_ms > 0 {
        let timeout = Duration::from_millis(opts.wait_ready_ms);
        Client::connect_ready(opts.addr.as_str(), timeout)
            .map_err(|e| format!("server at {} not ready: {e}", opts.addr))?;
    }
    let outcome = act(opts);
    if let Some(path) = &opts.trace {
        cli::write_trace(path, opts.trace_format)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    outcome
}

fn act(opts: &Options) -> Result<(), String> {
    match &opts.action {
        Action::Plain(method) => {
            let r = client(opts)?
                .call(method, "{}")
                .map_err(|e| e.to_string())?;
            println!("{}", r.raw);
            Ok(())
        }
        Action::Call {
            method,
            params,
            print_payload,
        } => {
            let r = client(opts)?
                .call(method, params)
                .map_err(|e| e.to_string())?;
            if !r.ok {
                return Err(format!("request failed: {}", r.raw));
            }
            if *print_payload {
                match r.result_json() {
                    // A string payload (e.g. `experiment`) prints
                    // decoded — byte-identical to repro stdout.
                    Ok(Json::Str(text)) => print!("{text}"),
                    _ => println!("{}", r.result.as_deref().unwrap_or("null")),
                }
            } else {
                println!("{}", r.raw);
            }
            Ok(())
        }
        Action::Metrics => {
            let body = http_get(opts.addr.as_str(), "/metrics").map_err(|e| e.to_string())?;
            print!("{body}");
            Ok(())
        }
        Action::Mixed {
            requests,
            concurrency,
            out,
        } => run_mixed(&opts.addr, *requests, *concurrency, out.as_deref()),
    }
}

fn client(opts: &Options) -> Result<Client, String> {
    Client::connect(opts.addr.as_str()).map_err(|e| format!("cannot connect to {}: {e}", opts.addr))
}

/// Parses a command line (without the program name).
fn parse(argv: &[String]) -> Result<Options, String> {
    let mut addr: Option<String> = None;
    let mut wait_ready_ms = 0u64;
    let mut action: Option<Action> = None;
    let mut call_method: Option<String> = None;
    let mut call_params = "{}".to_owned();
    let mut print_payload = false;
    let mut mixed_requests: Option<usize> = None;
    let mut concurrency = 4usize;
    let mut out: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut trace_format = TraceFormat::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => addr = Some(value(&mut it, "--addr needs HOST:PORT")?),
            "--wait-ready-ms" => {
                wait_ready_ms = parsed(it.next(), |_| true, "--wait-ready-ms needs an integer")?;
            }
            "--call" => call_method = Some(value(&mut it, "--call needs a method")?),
            "--params" => call_params = value(&mut it, "--params needs JSON")?,
            "--print" => {
                print_payload = match it.next().map(String::as_str) {
                    Some("payload") => true,
                    Some("line") => false,
                    _ => return Err("--print needs one of: payload, line".to_owned()),
                };
            }
            "--metrics" => action = Some(Action::Metrics),
            "--shutdown" => action = Some(Action::Plain("shutdown")),
            "--mixed" => {
                mixed_requests = Some(parsed(
                    it.next(),
                    |_| true,
                    "--mixed needs a request count",
                )?);
            }
            "--concurrency" => concurrency = positive(it.next(), flag)?,
            "--out" => out = Some(value(&mut it, "--out needs a path")?),
            "--trace" => trace = Some(value(&mut it, "--trace needs a path")?),
            "--trace-format" => trace_format = it.next().map_or("", String::as_str).parse()?,
            "--help" | "-h" => {
                return Err("see module docs: subvt-loadgen --addr A [--call|--mixed|--metrics|--shutdown] [--trace PATH --trace-format jsonl|chrome]".to_owned());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    let action = if let Some(method) = call_method {
        Action::Call {
            method,
            params: call_params,
            print_payload,
        }
    } else if let Some(requests) = mixed_requests {
        Action::Mixed {
            requests,
            concurrency,
            out,
        }
    } else {
        action.unwrap_or(Action::Plain("ping"))
    };
    Ok(Options {
        addr,
        wait_ready_ms,
        action,
        trace,
        trace_format,
    })
}

/// The deterministic request mix: mostly cheap ref90 queries, with
/// deliberate duplicates so dedup counters move under load, plus
/// topology-layer requests (gate library, ring oscillator) so the
/// compiled-netlist caches see mixed traffic too.
const MIX: [(&str, &str); 11] = [
    (
        "idvg",
        r#"{"node":"ref90","v_ds":0.05,"v_gs":{"start":0.0,"stop":1.2,"points":25}}"#,
    ),
    ("params", r#"{"node":"ref90"}"#),
    (
        "idvg",
        r#"{"node":"ref90","v_ds":0.05,"v_gs":{"start":0.0,"stop":1.2,"points":25}}"#,
    ),
    ("vtc", r#"{"node":"ref90","v_dd":0.3,"points":41}"#),
    ("snm", r#"{"node":"ref90","v_dd":0.3}"#),
    ("fo1", r#"{"node":"ref90","v_dd":0.3}"#),
    ("chain_energy", r#"{"node":"ref90","v_dd":0.3}"#),
    (
        "idvg",
        r#"{"node":"ref90","v_ds":1.2,"v_gs":{"start":0.0,"stop":1.2,"points":25}}"#,
    ),
    (
        "topology",
        r#"{"op":"gate_snm","gate":"nand2","node":"ref90","v_dd":0.25,"points":41}"#,
    ),
    (
        "topology",
        r#"{"op":"ring_freq","node":"ref90","v_dd":0.25,"stages":5,"steps":600}"#,
    ),
    (
        "topology",
        r#"{"op":"gate_snm","gate":"nand2","node":"ref90","v_dd":0.25,"points":41}"#,
    ),
];

struct Sample {
    method: &'static str,
    ms: f64,
    ok: bool,
}

fn run_mixed(
    addr: &str,
    requests: usize,
    concurrency: usize,
    out: Option<&str>,
) -> Result<(), String> {
    let next = Arc::new(AtomicUsize::new(0));
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::with_capacity(requests)));
    let pid = std::process::id();
    let started = Instant::now();
    let threads: Vec<_> = (0..concurrency)
        .map(|_| {
            let next = Arc::clone(&next);
            let samples = Arc::clone(&samples);
            let addr = addr.to_owned();
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = Client::connect(addr.as_str())
                    .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= requests {
                        return Ok(());
                    }
                    let (method, params) = MIX[i % MIX.len()];
                    let trace_id = format!("lg{pid:x}-{i:x}");
                    let mut span = trace::span("client.request");
                    span.set_attr("method", method);
                    span.set_attr("trace_id", trace_id.as_str());
                    let call_started = Instant::now();
                    let result = client.call_traced(method, params, Some((&trace_id, span.id())));
                    drop(span);
                    let ok = match result {
                        Ok(r) => r.ok,
                        Err(e) => return Err(format!("transport error on {method}: {e}")),
                    };
                    samples.lock().expect("samples lock").push(Sample {
                        method,
                        ms: call_started.elapsed().as_secs_f64() * 1e3,
                        ok,
                    });
                }
            })
        })
        .collect();
    for t in threads {
        t.join()
            .map_err(|_| "worker thread panicked".to_owned())??;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let samples = Arc::try_unwrap(samples)
        .map_err(|_| "samples still shared")?
        .into_inner()
        .expect("samples lock");

    let mut latencies: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    latencies.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        if latencies.is_empty() {
            return f64::NAN;
        }
        let idx = ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[idx - 1]
    };
    let errors = samples.iter().filter(|s| !s.ok).count();
    let mean = if latencies.is_empty() {
        f64::NAN
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };

    let mut by_method: Vec<(&str, usize, usize)> = Vec::new();
    for s in &samples {
        match by_method.iter_mut().find(|(m, _, _)| *m == s.method) {
            Some(entry) => {
                entry.1 += 1;
                if !s.ok {
                    entry.2 += 1;
                }
            }
            None => by_method.push((s.method, 1, usize::from(!s.ok))),
        }
    }
    by_method.sort_by_key(|(m, _, _)| *m);

    let mut json = format!(
        "{{\"suite\":\"serve\",{},\"requests\":{},\"concurrency\":{concurrency},\
         \"elapsed_s\":{:.6},\"throughput_rps\":{:.3},\"errors\":{errors},\
         \"latency_ms\":{{\"min\":{:.4},\"p50\":{:.4},\"p90\":{:.4},\"p99\":{:.4},\
         \"max\":{:.4},\"mean\":{:.4}}},\"by_method\":{{",
        subvt_bench::benchjson::provenance_fragment(),
        samples.len(),
        elapsed,
        samples.len() as f64 / elapsed,
        latencies.first().copied().unwrap_or(f64::NAN),
        q(0.50),
        q(0.90),
        q(0.99),
        latencies.last().copied().unwrap_or(f64::NAN),
        mean,
    );
    for (i, (method, count, errs)) in by_method.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{method}\":{{\"count\":{count},\"errors\":{errs}}}"
        ));
    }
    json.push_str("}}");

    println!(
        "mixed load: {} requests, {concurrency} threads, {:.1} req/s, \
         p50 {:.2} ms, p99 {:.2} ms, {errors} errors",
        samples.len(),
        samples.len() as f64 / elapsed,
        q(0.50),
        q(0.99),
    );
    if let Some(path) = out {
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(file, "{json}").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if errors > 0 {
        return Err(format!("{errors} requests failed"));
    }
    Ok(())
}
