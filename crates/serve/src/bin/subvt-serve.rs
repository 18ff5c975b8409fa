//! The `subvt-serve` daemon binary.
//!
//! ```text
//! subvt-serve                          # listen on 127.0.0.1:7171
//! subvt-serve --addr 127.0.0.1:0       # free port (printed on stdout)
//! subvt-serve --cache serve.jsonl      # persist the response/design cache
//! subvt-serve --workers 4 --queue 128  # pool and admission sizing
//! subvt-serve --deadline-ms 10000      # per-request compute deadline
//! subvt-serve --slo vtc=p99:50 --access-log access.jsonl
//! subvt-serve --trace serve-trace.json --trace-format chrome
//! ```
//!
//! The first stdout line is always `subvt-serve listening on <addr>`,
//! so scripts can scrape the bound port. SIGTERM/ctrl-c (or the
//! `shutdown` method) triggers a graceful drain: queued and new
//! requests get typed `shutting_down` rejections, in-flight computes
//! finish bounded by the deadline, and the cache is compacted to disk
//! before exit.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use subvt_serve::{signal, Config, Server, SloRule};

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

fn main() -> ExitCode {
    let mut config = Config {
        addr: "127.0.0.1:7171".to_owned(),
        watch_signals: true,
        ..Config::default()
    };
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut trace_format = TraceFormat::Jsonl;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(addr) = iter.next() else {
                    eprintln!("--addr needs HOST:PORT");
                    return ExitCode::FAILURE;
                };
                config.addr = addr.clone();
            }
            "--workers" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                else {
                    eprintln!("--workers needs a positive integer");
                    return ExitCode::FAILURE;
                };
                config.workers = n;
            }
            "--queue" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                else {
                    eprintln!("--queue needs a positive integer");
                    return ExitCode::FAILURE;
                };
                config.queue_capacity = n;
            }
            "--deadline-ms" => {
                let Some(ms) = iter
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--deadline-ms needs a positive integer");
                    return ExitCode::FAILURE;
                };
                config.deadline = Duration::from_millis(ms);
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
                config.max_attempts = n;
            }
            "--cache" => {
                let Some(path) = iter.next() else {
                    eprintln!("--cache needs a file path");
                    return ExitCode::FAILURE;
                };
                config.cache_path = Some(path.into());
            }
            "--jobs" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                else {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if !subvt_engine::configure_jobs(n) {
                    eprintln!("--jobs must come before any work is scheduled");
                    return ExitCode::FAILURE;
                }
            }
            "--slo" => {
                let Some(spec) = iter.next() else {
                    eprintln!("--slo needs METHOD=QUANTILE:MS (e.g. vtc=p99:50)");
                    return ExitCode::FAILURE;
                };
                match SloRule::parse(spec) {
                    Ok(rule) => config.slos.push(rule),
                    Err(e) => {
                        eprintln!("bad --slo `{spec}`: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--access-log" => {
                let Some(path) = iter.next() else {
                    eprintln!("--access-log needs a file path");
                    return ExitCode::FAILURE;
                };
                config.access_log = Some(path.into());
            }
            "--window-secs" => {
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--window-secs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                config.window_secs = n;
            }
            "--trace" => {
                let Some(path) = iter.next() else {
                    eprintln!("--trace needs a file path");
                    return ExitCode::FAILURE;
                };
                trace_path = Some(path.into());
            }
            "--trace-format" => {
                let format = match iter.next().map(String::as_str) {
                    Some("jsonl") => TraceFormat::Jsonl,
                    Some("chrome") => TraceFormat::Chrome,
                    _ => {
                        eprintln!("--trace-format needs one of: jsonl, chrome");
                        return ExitCode::FAILURE;
                    }
                };
                trace_format = format;
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    signal::install();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("subvt-serve listening on {}", server.addr());
    std::io::stdout().flush().ok();
    let joined = server.join();
    if let Some(path) = &trace_path {
        if let Err(e) = write_trace(path, trace_format) {
            eprintln!("cannot write trace {}: {e}", path.display());
        }
    }
    match joined {
        Ok(()) => {
            eprintln!("subvt-serve: graceful shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shutdown error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_trace(path: &std::path::Path, format: TraceFormat) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let tracer = subvt_engine::trace::global();
    match format {
        TraceFormat::Jsonl => tracer.write_jsonl(&mut out)?,
        TraceFormat::Chrome => tracer.write_chrome(&mut out)?,
    }
    out.flush()
}

fn print_help() {
    eprintln!("usage: subvt-serve [options]");
    eprintln!();
    eprintln!("options:");
    eprintln!("  --addr HOST:PORT     bind address (default 127.0.0.1:7171; port 0 = free port)");
    eprintln!("  --workers N          compute worker threads (default 2)");
    eprintln!("  --queue N            admission queue capacity (default 64)");
    eprintln!("  --deadline-ms N      per-request compute deadline (default 30000)");
    eprintln!("  --max-attempts N     supervisor attempts before quarantine (default 1)");
    eprintln!("  --cache PATH         persist the response/design cache across restarts");
    eprintln!("  --jobs N             engine worker threads (default: cores, or $SUBVT_JOBS)");
    eprintln!("  --slo M=Q:MS         latency SLO, repeatable (e.g. vtc=p99:50; Q: p50|p95|p99)");
    eprintln!("  --access-log PATH    append one JSONL line per request (DESIGN.md section 6)");
    eprintln!("  --window-secs N      rolling latency/SLO window (default 60)");
    eprintln!("  --trace PATH         write the request span tree on shutdown");
    eprintln!("  --trace-format F     trace file format: jsonl (default) | chrome");
    eprintln!();
    eprintln!("Protocol: newline-framed JSON over TCP, plus GET /metrics and");
    eprintln!("GET /healthz over the same port. Each request picks its own");
    eprintln!("`backend` and `circuit_backend`. See DESIGN.md section 8.");
}
