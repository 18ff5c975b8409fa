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
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use subvt_engine::cli::{self, positive, value, TraceFormat};
use subvt_engine::trace;
use subvt_serve::{signal, Config, Server, SloRule};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(serve) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// A parsed `subvt-serve` command line.
struct Args {
    config: Config,
    jobs: Option<usize>,
    trace: Option<PathBuf>,
    trace_format: TraceFormat,
}

/// Parses a command line (without the program name); `None` is a
/// request for the help text.
fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        config: Config {
            addr: "127.0.0.1:7171".to_owned(),
            watch_signals: true,
            ..Config::default()
        },
        jobs: None,
        trace: None,
        trace_format: TraceFormat::default(),
    };
    let config = &mut args.config;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => config.addr = value(&mut it, "--addr needs HOST:PORT")?,
            "--workers" => config.workers = positive(it.next(), flag)?,
            "--queue" => config.queue_capacity = positive(it.next(), flag)?,
            "--deadline-ms" => config.deadline = Duration::from_millis(positive(it.next(), flag)?),
            "--max-attempts" => config.max_attempts = positive(it.next(), flag)?,
            "--cache" => {
                config.cache_path = Some(value(&mut it, "--cache needs a file path")?.into())
            }
            "--jobs" => args.jobs = Some(positive(it.next(), flag)?),
            "--slo" => {
                let spec = value(&mut it, "--slo needs METHOD=QUANTILE:MS (e.g. vtc=p99:50)")?;
                let rule = SloRule::parse(&spec).map_err(|e| format!("bad --slo `{spec}`: {e}"))?;
                config.slos.push(rule);
            }
            "--access-log" => {
                config.access_log = Some(value(&mut it, "--access-log needs a file path")?.into());
            }
            "--window-secs" => config.window_secs = positive(it.next(), flag)?,
            "--trace" => args.trace = Some(value(&mut it, "--trace needs a file path")?.into()),
            "--trace-format" => {
                args.trace_format = it.next().map_or("", String::as_str).parse()?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(args))
}

/// Serves until a signal or the `shutdown` method drains the daemon.
fn serve(args: Option<Args>) -> Result<(), String> {
    let Some(args) = args else {
        eprintln!("{HELP}");
        return Ok(());
    };
    cli::configure_run(args.jobs)?;
    // Only the shutdown `--trace` writer reads spans; without it the
    // daemon keeps its metrics but lets spans go as they close, so its
    // memory stays flat with uptime.
    trace::global().set_keep_spans(args.trace.is_some());
    signal::install();
    let server = Server::start(args.config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("subvt-serve listening on {}", server.addr());
    std::io::stdout().flush().ok();
    let joined = server.join();
    if let Some(path) = &args.trace {
        if let Err(e) = cli::write_trace(path, args.trace_format) {
            eprintln!("cannot write trace {}: {e}", path.display());
        }
    }
    joined.map_err(|e| format!("shutdown error: {e}"))?;
    eprintln!("subvt-serve: graceful shutdown complete");
    Ok(())
}

const HELP: &str = "\
usage: subvt-serve [options]

options:
  --addr HOST:PORT     bind address (default 127.0.0.1:7171; port 0 = free port)
  --workers N          compute worker threads (default 2)
  --queue N            admission queue capacity (default 64)
  --deadline-ms N      per-request compute deadline (default 30000)
  --max-attempts N     supervisor attempts before quarantine (default 1)
  --cache PATH         persist the response/design cache across restarts
  --jobs N             engine worker threads (default: cores, or $SUBVT_JOBS)
  --slo M=Q:MS         latency SLO, repeatable (e.g. vtc=p99:50; Q: p50|p95|p99)
  --access-log PATH    append one JSONL line per request (DESIGN.md section 6)
  --window-secs N      rolling latency/SLO window (default 60)
  --trace PATH         keep every span and write the request span tree on
                       shutdown (without it: counters, gauges and
                       histograms only, no spans)
  --trace-format F     trace file format: jsonl (default) | chrome

Protocol: newline-framed JSON over TCP, plus GET /metrics and
GET /healthz over the same port. Each request picks its own
`backend` and `circuit_backend`. See DESIGN.md section 8.";
