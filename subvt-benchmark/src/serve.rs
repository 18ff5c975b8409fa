//! The `serve-mixed` workload: one `subvt-serve --workers 2` on a copy
//! of a prefilled cache, driven by [`CONNECTIONS`] client connections
//! from this process.
//!
//! * **Phase A** is an open loop at a fixed rate. Request `j` is due at
//!   `j / rate` seconds, goes out on connection `j mod 2`, and its latency
//!   runs from when it was due, so a stall also counts against every
//!   request queued behind it on that connection.
//! * **Phase B** is a closed loop: each connection sends its next request
//!   as soon as the previous one is answered. It gives the gated mean
//!   latency and the throughput. With as many connections as daemon
//!   workers no request queues for a worker, so its times slow in step
//!   with the host; phase A's queueing at a fixed rate grows much faster
//!   than linearly as the host slows, and phase A is reported only.
//!
//! The two phases alternate in windows over the whole session, with a
//! compute reference ([`host::Bracket`]) between windows.
//!
//! Every hot response must equal the payload recorded while prefilling
//! (experiments: byte-identical to `repro <id>` stdout), every dup must
//! equal its original, and a seeded sample of fresh responses must equal
//! an in-process `subvt_serve::query::compute` of the same request.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use subvt_exp::tracefmt::{parse_access_log, parse_json, AccessRecord, Json};
use subvt_serve::client::{http_get, Client, Response};
use subvt_serve::query::{self, Query};

use crate::check;
use crate::counters::Counters;
use crate::host::{self, Scaled};
use crate::procs::{self, Bins, Daemon, WorkDir};
use crate::report::{num, push_end_to_end, split, timing_note, Outcome};
use crate::stats::{median, Quantiles};
use crate::traffic::{Kind, Request, Traffic, HOT};
use crate::workload::Workload;

/// Client connections (and daemon workers): the host's two cores.
pub const CONNECTIONS: usize = 2;

const READY_TIMEOUT: Duration = Duration::from_secs(30);
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(60);

/// What [`prepare`] leaves for the sessions.
pub struct Prepared {
    /// The prefilled cache file; sessions start on copies of it.
    pub prefill: PathBuf,
    /// The payload of every [`HOT`] request, by index.
    pub expected: Vec<String>,
}

/// Records `repro <id>` stdout for the hot experiments, then prefills a
/// cache by sending every hot request once to a fresh daemon and checks
/// the served experiments against those references.
///
/// # Errors
///
/// When a reference run, the daemon, or a check fails.
pub fn prepare(bins: &Bins, work: &WorkDir) -> Result<Prepared, String> {
    let mut refs: Vec<(usize, Vec<u8>)> = Vec::new();
    for (i, (method, params)) in HOT.iter().enumerate() {
        if *method != "experiment" {
            continue;
        }
        let json = parse_json(params)?;
        let id = json.get("id").and_then(Json::as_str).unwrap_or("");
        let dir = work.fresh("ref")?;
        let mut cmd = procs::command(&bins.repro, &dir);
        if json.get("format").and_then(Json::as_str) == Some("csv") {
            cmd.arg("--csv");
        }
        let ran = procs::run(cmd.arg(id), &dir.join("stderr.txt"));
        work.retire(&dir);
        refs.push((i, ran?.stdout));
    }

    let dir = work.fresh("prefill")?;
    let daemon = spawn(bins, &dir, false)?;
    daemon.wait_ready(READY_TIMEOUT)?;
    let mut client =
        Client::connect(daemon.addr()).map_err(|e| format!("cannot connect to daemon: {e}"))?;
    let mut expected = Vec::with_capacity(HOT.len());
    for (i, (method, params)) in HOT.iter().enumerate() {
        let r = client
            .call(method, params)
            .map_err(|e| format!("prefill {method} {params}: {e}"))?;
        let payload = match (r.ok, r.result) {
            (true, Some(p)) => p,
            _ => return Err(format!("prefill {method} {params} failed: {}", r.raw)),
        };
        if let Some((_, want)) = refs.iter().find(|(j, _)| *j == i) {
            let Ok(Json::Str(text)) = parse_json(&payload) else {
                return Err(format!("experiment payload is not a string: {params}"));
            };
            check::identical(
                &format!("served {params} vs repro stdout"),
                want,
                text.as_bytes(),
            )?;
        }
        expected.push(payload);
    }
    drop(client);
    daemon.shutdown(SHUTDOWN_TIMEOUT)?;
    Ok(Prepared {
        prefill: dir.join("cache.jsonl"),
        expected,
    })
}

/// Spawns `subvt-serve` in `dir` on `dir/cache.jsonl`.
fn spawn(bins: &Bins, dir: &Path, access_log: bool) -> Result<Daemon, String> {
    let mut cmd = procs::command(&bins.serve, dir);
    cmd.args([
        "--workers",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--cache",
        "cache.jsonl",
    ]);
    if access_log {
        cmd.args(["--access-log", "access.jsonl"]);
    }
    Daemon::spawn(cmd, &dir.join("stderr.txt"))
}

/// How much one session does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Daemon start-ups timed; the last one serves the traffic.
    pub startups: usize,
    /// Phase A arrival rate, requests per second.
    pub rate: f64,
    /// Phase A length at `rate`, which sets its request count.
    pub phase_a: Duration,
    /// Phase B request count (0 skips the phase).
    pub phase_b: usize,
    /// Run the daemon with `--access-log`.
    pub access_log: bool,
    /// Fresh responses re-computed in-process and compared.
    pub fresh_checks: usize,
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Phase A: from due time to response; phase B: from send.
    pub latency_ms: f64,
    /// From send to response.
    pub service_ms: f64,
    /// How late the generator sent, beyond the due time or the previous
    /// response on the connection, whichever was later.
    pub late_ms: f64,
    /// Factor scaling this sample's times to the reference host, from
    /// the compute references around its window.
    pub scale: f64,
    /// Cache provenance reported by the daemon.
    pub cached: Option<String>,
    /// The check verdict; fresh and dup payloads are kept.
    pub verdict: Result<Option<String>, String>,
}

/// Everything one session measured.
pub struct Session {
    /// Spawn-to-first-`ping` seconds of each start-up.
    pub setup_s: Vec<f64>,
    /// Phase A requests and samples, by index.
    pub a: Vec<(Request, Sample)>,
    /// Phase B requests and samples, by index.
    pub b: Vec<(Request, Sample)>,
    /// Phase B wall time, as measured and scaled to the reference host,
    /// s.
    pub b_elapsed: Scaled,
    /// The serving daemon's peak resident memory, KiB.
    pub maxrss_kb: u64,
    /// The daemon's counters after the traffic.
    pub counters: Counters,
    /// Access-log lines (with `access_log`).
    pub access: Vec<AccessRecord>,
    /// In-process `query::compute` wall times of the fresh checks, µs.
    pub compute_us: Vec<f64>,
}

/// Latencies of a phase's answered requests, ms, as measured and scaled
/// to the reference host.
fn latencies(phase: &[(Request, Sample)]) -> Vec<Scaled> {
    phase
        .iter()
        .filter(|(_, s)| s.verdict.is_ok())
        .map(|(_, s)| Scaled {
            raw: s.latency_ms,
            scaled: s.latency_ms * s.scale,
        })
        .collect()
}

impl Session {
    /// Median phase A latency of answered requests as measured, ms.
    pub fn raw_latency_p50(&self) -> f64 {
        median(&latencies(&self.a).iter().map(|s| s.raw).collect::<Vec<_>>())
    }
}

/// Runs one session: timed start-ups, phase A, phase B, then checks.
/// Every request is recorded into `out`.
///
/// # Errors
///
/// When the daemon cannot be started or stopped.
pub fn session(
    bins: &Bins,
    work: &WorkDir,
    prep: &Prepared,
    traffic: &mut Traffic,
    plan: Plan,
    out: &mut Outcome,
) -> Result<Session, String> {
    let mut setup_s = Vec::with_capacity(plan.startups);
    let mut live: Option<(Daemon, PathBuf)> = None;
    for i in 0..plan.startups.max(1) {
        let dir = work.fresh("serve")?;
        std::fs::copy(&prep.prefill, dir.join("cache.jsonl"))
            .map_err(|e| format!("cannot copy the prefilled cache: {e}"))?;
        let started = Instant::now();
        let daemon = spawn(bins, &dir, plan.access_log)?;
        daemon.wait_ready(READY_TIMEOUT)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if i + 1 < plan.startups.max(1) {
            daemon.shutdown(SHUTDOWN_TIMEOUT)?;
            work.retire(&dir);
        } else {
            live = Some((daemon, dir));
        }
    }
    let (daemon, dir) = live.expect("at least one start-up");

    // Both connections are open, and answered once, before any timing: a
    // new connection first waits for the daemon's accept poll.
    let mut clients = (0..CONNECTIONS)
        .map(|_| {
            let mut c = Client::connect(daemon.addr())
                .map_err(|e| format!("cannot connect to daemon: {e}"))?;
            c.call("ping", "{}")
                .map_err(|e| format!("cannot ping daemon: {e}"))?;
            Ok(Some(c))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // The phases alternate window by window, so both sample the host over
    // the whole session; every window is timed against the compute
    // references on both sides of it.
    let n_a = (plan.rate * plan.phase_a.as_secs_f64()).round() as usize;
    let windows = n_a.div_ceil(WINDOW).max(1);
    let (mut a, mut b) = (Vec::with_capacity(n_a), Vec::with_capacity(plan.phase_b));
    let mut b_elapsed = Scaled {
        raw: 0.0,
        scaled: 0.0,
    };
    let mut reference = host::Bracket::start();
    for w in 0..windows {
        let reqs = traffic.take(WINDOW.min(n_a.saturating_sub(a.len())));
        let window = open_window(
            daemon.addr(),
            &mut clients,
            reqs,
            a.len(),
            plan.rate,
            &prep.expected,
        );
        a.extend(scaled(window, reference.close()));

        let due = plan.phase_b * (w + 1) / windows;
        let reqs = traffic.take(due.saturating_sub(b.len()));
        if reqs.is_empty() {
            continue;
        }
        let started = Instant::now();
        let window = closed_loop(daemon.addr(), &mut clients, reqs, b.len(), &prep.expected);
        let secs = started.elapsed().as_secs_f64();
        let scale = reference.close();
        b_elapsed.raw += secs;
        b_elapsed.scaled += secs * scale;
        b.extend(scaled(window, scale));
    }

    drop(clients);
    let counters = http_get(daemon.addr(), "/metrics")
        .map(|text| Counters::from_prometheus(&text))
        .map_err(|e| format!("cannot read /metrics: {e}"))?;
    let maxrss_kb = daemon.peak_rss_kb()?;
    daemon.shutdown(SHUTDOWN_TIMEOUT)?;
    let access = if plan.access_log {
        let text = std::fs::read_to_string(dir.join("access.jsonl"))
            .map_err(|e| format!("cannot read the access log: {e}"))?;
        parse_access_log(&text)?
    } else {
        Vec::new()
    };
    work.retire(&dir);

    let mut s = Session {
        setup_s,
        a,
        b,
        b_elapsed,
        maxrss_kb,
        counters,
        access,
        compute_us: Vec::new(),
    };
    for (_, sample) in s.a.iter().chain(&s.b) {
        out.record(sample.verdict.clone().map(|_| ()));
    }
    check_dups(&s.a, out);
    check_dups(&s.b, out);
    s.compute_us = check_fresh(&s, plan.fresh_checks, out);
    Ok(s)
}

/// Sends `req` on `client`, reconnecting first when a previous
/// transport error dropped the connection.
fn call(
    client: &mut Option<Client>,
    addr: &str,
    req: &Request,
    trace_id: &str,
) -> Result<Response, String> {
    if client.is_none() {
        *client =
            Some(Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?);
    }
    let c = client.as_mut().expect("connected above");
    c.call_traced(req.method, &req.params, Some((trace_id, 0)))
        .map_err(|e| {
            *client = None;
            format!("transport error on {} {}: {e}", req.method, req.params)
        })
}

/// Checks a response: hot payloads must equal the prefilled ones; fresh
/// and dup payloads are kept for the later checks.
fn verdict(
    req: &Request,
    resp: Result<Response, String>,
    expected: &[String],
) -> (Option<String>, Result<Option<String>, String>) {
    let resp = match resp {
        Ok(r) => r,
        Err(e) => return (None, Err(e)),
    };
    let cached = resp.cached.clone();
    let payload = match (resp.ok, resp.result) {
        (true, Some(p)) => p,
        _ => {
            return (
                cached,
                Err(format!(
                    "{} {} failed: {}",
                    req.method, req.params, resp.raw
                )),
            )
        }
    };
    let v = match req.kind {
        Kind::Hot(i) if payload != expected[i] => check::identical(
            &format!("hot {} {}", req.method, req.params),
            expected[i].as_bytes(),
            payload.as_bytes(),
        )
        .map(|()| None),
        Kind::Hot(_) => Ok(None),
        Kind::Fresh | Kind::Dup => Ok(Some(payload)),
    };
    (cached, v)
}

/// Sleeps until shortly before `due`, then spins to it.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Phase A requests per window; host references are taken between
/// windows, while the daemon is idle.
const WINDOW: usize = 200;

/// Sets every sample's scale factor.
fn scaled(window: Vec<(Request, Sample)>, scale: f64) -> impl Iterator<Item = (Request, Sample)> {
    window.into_iter().map(move |(r, mut s)| {
        s.scale = scale;
        (r, s)
    })
}

/// One open-loop window: request `k` of `reqs` is global request
/// `first + k`, due `k / rate` seconds after the window starts, and goes
/// out on connection `k mod` [`CONNECTIONS`].
fn open_window(
    addr: &str,
    clients: &mut [Option<Client>],
    reqs: Vec<Request>,
    first: usize,
    rate: f64,
    expected: &[String],
) -> Vec<(Request, Sample)> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<Option<Sample>> = vec![None; reqs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let reqs = &reqs;
                scope.spawn(move || {
                    let mut prev_done = t0;
                    let mut mine = Vec::new();
                    for j in (c..reqs.len()).step_by(CONNECTIONS) {
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        wait_until(due);
                        let send = Instant::now();
                        let late = send.saturating_duration_since(due.max(prev_done));
                        let trace_id = format!("a{}", first + j);
                        let resp = call(client, addr, &reqs[j], &trace_id);
                        let done = Instant::now();
                        prev_done = done;
                        let (cached, verdict) = verdict(&reqs[j], resp, expected);
                        mine.push((
                            j,
                            Sample {
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                service_ms: (done - send).as_secs_f64() * 1e3,
                                late_ms: late.as_secs_f64() * 1e3,
                                scale: 1.0,
                                cached,
                                verdict,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (j, s) in h.join().expect("phase A connection thread panicked") {
                samples[j] = Some(s);
            }
        }
    });
    reqs.into_iter()
        .zip(samples)
        .map(|(r, s)| (r, s.expect("every request answered or failed")))
        .collect()
}

/// One closed-loop window: request `k` of `reqs` is global phase-B
/// request `first + k`.
fn closed_loop(
    addr: &str,
    clients: &mut [Option<Client>],
    reqs: Vec<Request>,
    first: usize,
    expected: &[String],
) -> Vec<(Request, Sample)> {
    let next = AtomicUsize::new(0);
    let mut samples: Vec<Option<Sample>> = vec![None; reqs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (reqs, next) = (&reqs, &next);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= reqs.len() {
                            return mine;
                        }
                        let send = Instant::now();
                        let trace_id = format!("b{}", first + j);
                        let resp = call(client, addr, &reqs[j], &trace_id);
                        let ms = send.elapsed().as_secs_f64() * 1e3;
                        let (cached, verdict) = verdict(&reqs[j], resp, expected);
                        mine.push((
                            j,
                            Sample {
                                latency_ms: ms,
                                service_ms: ms,
                                late_ms: 0.0,
                                scale: 1.0,
                                cached,
                                verdict,
                            },
                        ));
                    }
                })
            })
            .collect();
        for h in handles {
            for (j, s) in h.join().expect("phase B connection thread panicked") {
                samples[j] = Some(s);
            }
        }
    });
    reqs.into_iter()
        .zip(samples)
        .map(|(r, s)| (r, s.expect("every request answered or failed")))
        .collect()
}

/// Every dup must have received its original's payload.
fn check_dups(phase: &[(Request, Sample)], out: &mut Outcome) {
    for w in phase.windows(2) {
        let ((orig, a), (dup, b)) = (&w[0], &w[1]);
        if dup.kind != Kind::Dup {
            continue;
        }
        if let (Ok(Some(x)), Ok(Some(y))) = (&a.verdict, &b.verdict) {
            if let Err(e) = check::identical(
                &format!("dup {} {}", orig.method, orig.params),
                x.as_bytes(),
                y.as_bytes(),
            ) {
                out.fail(e);
            }
        }
    }
}

/// Re-computes `n` evenly spaced fresh requests in-process and compares
/// payloads; returns the compute times (µs).
fn check_fresh(s: &Session, n: usize, out: &mut Outcome) -> Vec<f64> {
    let fresh: Vec<(&Request, &str)> =
        s.a.iter()
            .chain(&s.b)
            .filter_map(|(r, smp)| match (&r.kind, &smp.verdict) {
                (Kind::Fresh, Ok(Some(p))) => Some((r, p.as_str())),
                _ => None,
            })
            .collect();
    let n = n.min(fresh.len());
    let mut times = Vec::with_capacity(n);
    for k in 0..n {
        let (req, served) = fresh[k * fresh.len() / n];
        let q = parse_json(&req.params)
            .and_then(|p| Query::from_request(req.method, &p).map_err(|(_, e)| e));
        let started = Instant::now();
        let computed = q.and_then(|q| query::compute(&q));
        times.push(started.elapsed().as_secs_f64() * 1e6);
        let verdict = computed.and_then(|p| {
            check::identical(
                &format!("served {} {} vs in-process compute", req.method, req.params),
                p.as_bytes(),
                served.as_bytes(),
            )
        });
        if let Err(e) = verdict {
            out.fail(e);
        }
    }
    times
}

/// The session of an untraced run measuring for `seconds`: five timed
/// start-ups, then phase A at 400 requests/s for 60 % of the time
/// interleaved with `300 × seconds` closed-loop requests (about a fifth
/// of the time).
pub fn measured_plan(seconds: f64) -> Plan {
    Plan {
        startups: 5,
        rate: 400.0,
        phase_a: Duration::from_secs_f64(seconds * 0.6),
        phase_b: (300.0 * seconds) as usize,
        access_log: false,
        fresh_checks: 200,
    }
}

/// One untraced run of `serve-mixed`.
///
/// # Errors
///
/// When preparation or the daemon fails; failed requests are counted in
/// the outcome instead.
pub fn run(bins: &Bins, work: &WorkDir, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let prep = prepare(bins, work)?;
    let mut out = Outcome::new(Workload::ServeMixed, false);
    let mut traffic = Traffic::new(seed);
    let s = session(
        bins,
        work,
        &prep,
        &mut traffic,
        measured_plan(seconds),
        &mut out,
    )?;
    // Set-up is reported as measured: it is dominated by the daemon's
    // 20 ms accept poll, which does not scale with the host's speed.
    let setup: Vec<Scaled> = s
        .setup_s
        .iter()
        .map(|&raw| Scaled { raw, scaled: raw })
        .collect();
    push_end_to_end(&mut out, &setup, &latencies(&s.b), &[s.maxrss_kb as f64]);
    let (open, open_raw) = split(&latencies(&s.a));
    out.notes
        .push(("open_loop_latency_ms".to_owned(), timing_note(&open)));
    out.notes.push((
        "raw_open_loop_latency_ms".to_owned(),
        timing_note(&open_raw),
    ));
    let b_ok = s.b.iter().filter(|(_, x)| x.verdict.is_ok()).count() as f64;
    out.notes.push((
        "throughput_rps".to_owned(),
        format!(
            "{{\"raw\":{},\"scaled\":{}}}",
            num(b_ok / s.b_elapsed.raw),
            num(b_ok / s.b_elapsed.scaled)
        ),
    ));
    out.notes.push(("traffic".to_owned(), traffic_note(&s)));
    Ok(out)
}

/// Artifact note: request kinds, cache provenance, and how late the
/// open-loop generator ran.
fn traffic_note(s: &Session) -> String {
    let all = || s.a.iter().chain(&s.b);
    let count = |f: &dyn Fn(&Request, &Sample) -> bool| all().filter(|(r, x)| f(r, x)).count();
    let late = Quantiles::new(s.a.iter().map(|(_, x)| x.late_ms).collect());
    format!(
        "{{\"phase_a\":{},\"phase_b\":{},\"hot\":{},\"fresh\":{},\"dup\":{},\
         \"hit\":{},\"coalesced\":{},\"computed\":{},\"fresh_checked\":{},\
         \"generator_late_ms\":{{\"p50\":{},\"p99\":{}}}}}",
        s.a.len(),
        s.b.len(),
        count(&|r, _| matches!(r.kind, Kind::Hot(_))),
        count(&|r, _| r.kind == Kind::Fresh),
        count(&|r, _| r.kind == Kind::Dup),
        count(&|_, x| x.cached.as_deref() == Some("hit")),
        count(&|_, x| x.cached.as_deref() == Some("coalesced")),
        count(&|_, x| x.cached.as_deref() == Some("computed")),
        s.compute_us.len(),
        num(late.at(0.5)),
        num(late.at(0.99)),
    )
}
